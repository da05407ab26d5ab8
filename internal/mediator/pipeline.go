package mediator

import (
	"repro/internal/hw/disk"
	"repro/internal/hw/mem"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// command is an interpreted guest command: what the shared pipeline
// routes on, plus the fields each controller needs to reach the guest's
// DMA buffers and, for IDE, to replay the command.
type command struct {
	lba, count  int64
	cause       *trace.Span // issuing proc's causal span, captured at interpret time
	bufAddr     int64
	hintSrc     disk.SectorSource
	opcode      uint8
	write       bool
	data        bool
	hintDiscard bool
	hintArmed   bool

	bmCmd uint8  // IDE: bus-master command register
	prdt  uint32 // IDE: PRD table address
	slot  int    // AHCI: command slot
	ctba  uint64 // AHCI: command table address
	prdtl int    // AHCI: PRDT entry count
}

// controller is the controller-specific half of a mediator: the device
// primitives the shared pipeline calls. Commands pass by value: a pointer
// through the interface would move every command to the heap.
type controller interface {
	// take acquires the device for VMM use and waits for in-flight guest
	// commands to drain. insert is true for a multiplexed VMM request,
	// false for a taken-over guest command.
	take(p *sim.Proc, insert bool)
	// own hides an inserted request from the guest: guest commands
	// issued until give are queued.
	own()
	// give returns the device to the guest, replaying queued guest
	// commands; owned reports whether own was called.
	give(p *sim.Proc, owned bool)
	// transfer runs one VMM read or write of the local disk through the
	// device, interrupts masked, polling for completion.
	transfer(p *sim.Proc, write bool, payload disk.Payload)
	// takeOver marks cmd as served by the mediator: the guest keeps
	// seeing it in flight.
	takeOver(cmd command)
	// finish completes a taken-over command toward the guest, with the
	// completion interrupt the guest expects.
	finish(p *sim.Proc, cmd command)
	// appendSG appends to dst the guest buffers cmd's DMA table names;
	// want, the transfer length in bytes, lets the walk stop early.
	appendSG(dst []mem.Region, cmd command, want int64) []mem.Region
}

// pipeline is the controller-independent half of a mediator (paper
// §3.2): the routing decision for interpreted guest commands, copy-on-
// read redirection, hiding of the VMM's save area, and multiplexed VMM
// requests. The AHCI and IDE mediators embed it and supply the device
// primitives.
type pipeline struct {
	m       *machine.Machine
	backend Backend
	stats   Stats
	dev     controller

	// Pre-built spawn names and reusable scratch for the redirect path,
	// which runs once per intercepted guest read and must not allocate
	// per command. The scratch is guarded by the device: one redirect
	// holds it at a time.
	redirName   string
	protectName string
	runs        []Run
	parts       []disk.Payload
	dmaBuf      []byte
	sg          []mem.Region // decoded DMA table; never held across a yield, so interpretation shares it
}

func newPipeline(m *machine.Machine, backend Backend, dev controller, ctrlName string) pipeline {
	return pipeline{
		m:           m,
		backend:     backend,
		dev:         dev,
		redirName:   ctrlName + ".med.redirect",
		protectName: ctrlName + ".med.protect",
	}
}

// Stats implements Mediator.
func (pl *pipeline) Stats() *Stats { return &pl.stats }

// intercept counts a newly interpreted guest command and captures what
// travels with it: the issuing proc's causal span (the redirect and
// protect bodies run on fresh procs) and the DMA hint armed for its
// buffer.
func (pl *pipeline) intercept(p *sim.Proc, cmd *command) {
	pl.stats.GuestCommands.Inc()
	cmd.cause = trace.Cause(p)
	cmd.hintSrc, cmd.hintDiscard, cmd.hintArmed = pl.m.Disk.TakeDMAHint(cmd.bufAddr)
}

// route is the routing decision for an interpreted guest command; it
// reports whether the mediator took the command over. Commands it does
// not take over go to the device untouched.
func (pl *pipeline) route(cmd command) bool {
	if !cmd.data {
		// Initialization, flush, vendor traffic: not the mediator's
		// business (paper §3.2: mediators ignore irrelevant sequences).
		pl.rearmHint(cmd)
		return false
	}
	if pl.backend.Protected(cmd.lba, cmd.count) {
		pl.stats.ProtectedHits.Inc()
		pl.dev.takeOver(cmd)
		pl.m.K.Spawn(pl.protectName, func(p *sim.Proc) { pl.protect(p, cmd) })
		return true
	}
	if cmd.write {
		pl.backend.GuestWrote(cmd.lba, cmd.count)
		pl.stats.PassedThrough.Inc()
		pl.rearmHint(cmd)
		return false
	}
	pl.backend.GuestRead(cmd.lba, cmd.count)
	if pl.backend.AllFilled(cmd.lba, cmd.count) {
		pl.stats.PassedThrough.Inc()
		pl.rearmHint(cmd)
		return false
	}
	// I/O redirection: block the device access and serve from the server.
	pl.stats.Redirects.Inc()
	pl.dev.takeOver(cmd)
	pl.m.K.Spawn(pl.redirName, func(p *sim.Proc) { pl.redirect(p, cmd) })
	return true
}

// rearmHint puts a taken DMA hint back before a command passes through to
// the device, so the controller captures it at issue as usual.
func (pl *pipeline) rearmHint(cmd command) {
	if cmd.hintArmed {
		pl.m.Disk.SetNextDMA(cmd.bufAddr, cmd.hintSrc, cmd.hintDiscard)
	}
}

// begin opens a mediator span for one mediated operation.
func (pl *pipeline) begin(cause *trace.Span, name string, lba, count int64) *trace.Span {
	if pl.m.Trace == nil { // variadic attrs box; skip entirely when not tracing
		return nil
	}
	return pl.m.Trace.BeginChild(cause, pl.m.Name, "mediator", name,
		trace.Int("lba", lba), trace.Int("count", count))
}

// redirect performs copy-on-read for one taken-over guest read: unfilled
// runs come from the server and are written through to the local disk
// (§3.1: "also writes the data to the local disk for future use"), the
// filled gaps between them are read locally, and the assembled data is
// copied into the guest's buffers before the command completes.
func (pl *pipeline) redirect(p *sim.Proc, cmd command) {
	sp := pl.begin(cmd.cause, "redirect", cmd.lba, cmd.count)
	defer sp.End()
	// The backend fetch below issues AoE round trips on this proc; parent
	// them under the redirect span.
	trace.SwapCause(p, sp)
	pl.dev.take(p, false)
	defer pl.dev.give(p, false)

	parts := pl.parts[:0]
	defer func() { pl.parts = parts[:0] }()
	cursor := cmd.lba
	appendLocal := func(upto int64) {
		for cursor < upto {
			n := upto - cursor
			if n > 2048 {
				n = 2048
			}
			pl.dev.transfer(p, false, disk.Payload{LBA: cursor, Count: n})
			parts = append(parts, pl.m.Disk.Store().ReadPayload(cursor, n))
			cursor += n
		}
	}
	pl.runs = pl.backend.AppendUnfilledRuns(pl.runs[:0], cmd.lba, cmd.count)
	for _, run := range pl.runs {
		appendLocal(run.LBA) // already-filled gap: read from the local disk
		fetched, err := pl.backend.Fetch(p, run.LBA, run.Count)
		if err != nil {
			// Server unreachable: complete the command rather than leave
			// the guest waiting on it.
			if pl.m.Trace != nil { // the error text and attrs allocate; skip when not tracing
				pl.m.Trace.Emit(pl.m.Name, "mediator", "fetch-failed", trace.Int("lba", run.LBA),
					trace.Int("count", run.Count), trace.Str("err", err.Error()))
			}
			pl.dev.finish(p, cmd)
			return
		}
		pl.dev.transfer(p, true, fetched) // write-through to the local disk
		pl.backend.MarkFilled(run.LBA, run.Count)
		pl.stats.RedirectBytes.Add(run.Count * disk.SectorSize)
		parts = append(parts, fetched)
		cursor = run.End()
	}
	appendLocal(cmd.lba + cmd.count)

	// A discard hint means the guest will not look at the data.
	if !cmd.hintDiscard {
		pl.copyToGuest(cmd, parts)
	}
	pl.dev.finish(p, cmd)
}

// protect hides the VMM's bitmap save area from the guest (§3.3): the
// data never moves, reads observe zeros, and the command still completes
// with an interrupt.
func (pl *pipeline) protect(p *sim.Proc, cmd command) {
	sp := pl.begin(cmd.cause, "protect", cmd.lba, cmd.count)
	defer sp.End()
	trace.SwapCause(p, sp)
	pl.dev.take(p, false)
	defer pl.dev.give(p, false)
	if !cmd.write && !cmd.hintDiscard {
		zero := disk.Payload{LBA: cmd.lba, Count: cmd.count, Source: disk.Zero}
		pl.copyToGuest(cmd, []disk.Payload{zero})
	}
	pl.dev.finish(p, cmd)
}

// copyToGuest assembles parts and scatters them into the guest buffers
// cmd's DMA table names: the mediator acting as a virtual DMA controller.
func (pl *pipeline) copyToGuest(cmd command, parts []disk.Payload) {
	data := pl.dmaBuf[:0]
	for _, part := range parts {
		data = part.AppendTo(data)
	}
	pl.dmaBuf = data[:0] // keep the grown backing array for the next command
	pl.sg = pl.dev.appendSG(pl.sg[:0], cmd, int64(len(data)))
	pl.m.Mem.Scatter(pl.sg, data)
}

// InsertWrite implements Mediator: background-copy multiplexing.
func (pl *pipeline) InsertWrite(p *sim.Proc, payload disk.Payload, guard func() bool) bool {
	sp := pl.begin(trace.Cause(p), "insert-write", payload.LBA, payload.Count)
	defer sp.End()
	pl.dev.take(p, true)
	if guard != nil && !guard() {
		pl.dev.give(p, false)
		return false
	}
	pl.dev.own()
	pl.stats.Inserted.Inc()
	pl.stats.InsertedBytes.Add(payload.Count * disk.SectorSize)
	pl.dev.transfer(p, true, payload)
	pl.dev.give(p, true)
	return true
}

// InsertRead implements Mediator.
func (pl *pipeline) InsertRead(p *sim.Proc, lba, count int64) (disk.Payload, bool) {
	sp := pl.begin(trace.Cause(p), "insert-read", lba, count)
	defer sp.End()
	pl.dev.take(p, true)
	pl.dev.own()
	pl.dev.transfer(p, false, disk.Payload{LBA: lba, Count: count})
	got := pl.m.Disk.Store().ReadPayload(lba, count)
	pl.dev.give(p, true)
	return got, true
}
