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
	cause       *trace.Span // issuing guest context's causal span, captured at interpret time
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
//
// The primitives that block (take, transfer, finish) run as steps of an
// operation record: each reports true once it has completed, or false
// after scheduling the operation's next step, which calls it again. A
// primitive keeps its own progress in op.sub and leaves it zero when it
// completes.
type controller interface {
	// take claims the device for VMM use, once the operation holds
	// devLock, and waits for in-flight guest commands to drain. insert is
	// true for a multiplexed VMM request, false for a taken-over guest
	// command.
	take(o *op, insert bool) bool
	// own hides an inserted request from the guest: guest commands
	// issued until give are queued.
	own()
	// give returns the device to the guest, replaying queued guest
	// commands, before devLock is released; owned reports whether own was
	// called.
	give(owned bool)
	// transfer runs one VMM read or write of the local disk through the
	// device, interrupts masked, polling for completion.
	transfer(o *op, write bool, payload disk.Payload) bool
	// takeOver marks cmd as served by the mediator: the guest keeps
	// seeing it in flight.
	takeOver(cmd command)
	// finish completes o's taken-over command toward the guest, with the
	// completion interrupt the guest expects.
	finish(o *op) bool
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

	// devLock serializes VMM-side device use: redirects, protects and
	// inserted requests.
	devLock *sim.Resource

	// free recycles operation records. The scratch below is guarded by
	// the device: only the operation holding devLock touches it.
	free   []*op
	runs   []Run
	parts  []disk.Payload
	dmaBuf []byte
	sg     []mem.Region // decoded DMA table; never held across a step, so interpretation shares it
}

func newPipeline(m *machine.Machine, backend Backend, dev controller) pipeline {
	return pipeline{
		m:       m,
		backend: backend,
		dev:     dev,
		devLock: sim.NewResource(m.K, m.Name+".med.dev", 1),
	}
}

// Stats implements Mediator.
func (pl *pipeline) Stats() *Stats { return &pl.stats }

// intercept counts a newly interpreted guest command and captures what
// travels with it: the issuing guest context's causal span and the DMA
// hint armed for its buffer.
func (pl *pipeline) intercept(cause *trace.Span, cmd *command) {
	pl.stats.GuestCommands.Inc()
	cmd.cause = cause
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
		pl.start(opProtect, cmd)
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
	pl.start(opRedirect, cmd)
	return true
}

// rearmHint puts a taken DMA hint back before a command passes through to
// the device, so the controller captures it at issue as usual.
func (pl *pipeline) rearmHint(cmd command) {
	if cmd.hintArmed {
		pl.m.Disk.SetNextDMA(cmd.bufAddr, cmd.hintSrc, cmd.hintDiscard)
	}
}

// start schedules a redirect or protect of a taken-over command to begin
// at the current instant, after the events already scheduled for it.
func (pl *pipeline) start(kind opKind, cmd command) {
	o := pl.newOp(kind)
	o.cmd = cmd
	pl.m.K.After(0, o.stepFn)
}

// copyToGuest assembles parts and scatters them into the guest buffers
// cmd's DMA table names: the mediator acting as a virtual DMA controller.
// Buffers the guest pointed outside its memory receive nothing.
func (pl *pipeline) copyToGuest(cmd command, parts []disk.Payload) {
	data := pl.dmaBuf[:0]
	for _, part := range parts {
		data = part.AppendTo(data)
	}
	pl.dmaBuf = data[:0] // keep the grown backing array for the next command
	pl.sg = pl.dev.appendSG(pl.sg[:0], cmd, int64(len(data)))
	if pl.m.Mem.Reachable(pl.sg, int64(len(data))) {
		pl.m.Mem.Scatter(pl.sg, data)
	}
}

// InsertWrite implements Mediator: background-copy multiplexing. The
// insertion runs as the same kind of operation record as a redirect; the
// calling process suspends until its final step resumes it.
func (pl *pipeline) InsertWrite(p *sim.Proc, cause *trace.Span, payload disk.Payload, guard func() bool) bool {
	o := pl.newOp(opInsertWrite)
	o.cmd.lba, o.cmd.count = payload.LBA, payload.Count
	o.payload, o.guard = payload, guard
	pl.await(p, cause, o)
	ok := o.ok
	pl.putOp(o)
	return ok
}

// InsertRead implements Mediator.
func (pl *pipeline) InsertRead(p *sim.Proc, cause *trace.Span, lba, count int64) (disk.Payload, bool) {
	o := pl.newOp(opInsertRead)
	o.cmd.lba, o.cmd.count = lba, count
	pl.await(p, cause, o)
	got, ok := o.payload, o.ok
	pl.putOp(o)
	return got, ok
}

// await runs an insertion for the process p, suspending p until the
// insertion completes. Its span parents on cause.
func (pl *pipeline) await(p *sim.Proc, cause *trace.Span, o *op) {
	o.cmd.cause = cause
	o.proc = p
	o.step()
	p.Suspend()
}

// opKind is what a mediated operation does.
type opKind uint8

const (
	opRedirect    opKind = iota // copy-on-read of a taken-over guest read
	opProtect                   // a taken-over access to the VMM's save area
	opInsertWrite               // a multiplexed VMM write
	opInsertRead                // a multiplexed VMM read
)

// opNames are the operations' span names.
var opNames = [...]string{"redirect", "protect", "insert-write", "insert-read"}

// opStep is where an operation's step function resumes.
type opStep uint8

const (
	stepBegin   opStep = iota // open the span
	stepLock                  // acquire devLock
	stepTake                  // claim the device
	stepGap                   // redirect: next filled gap, unfilled run, or the copy-out
	stepLocal                 // redirect: local read of a filled gap
	stepFetch                 // redirect: fetch the next unfilled run
	stepFetched               // redirect: the run's fetch completed
	stepWrite                 // redirect: write-through of the fetched run
	stepFinish                // complete the guest command
	stepInsert                // insertion: the VMM request
)

// op is one mediated operation in flight. It runs as kernel callbacks,
// not as a process: the record caches its continuations, and every point
// at which the process-form body used to block (the devLock wait, each
// poll or interrupt-injection sleep, the backend fetch) schedules
// exactly one of them, in the (when, seq) slot the blocked process's
// wakeup would have taken. DESIGN.md §5a ("Event-driven mediator") gives
// the ordering rules. Records are pooled per mediator.
type op struct {
	pl   *pipeline
	kind opKind
	pc   opStep
	sub  uint8 // the running controller primitive's own progress
	cmd  command
	sp   *trace.Span

	// Redirect progress: the next unfilled run of pl.runs, the next
	// sector to assemble, the sectors of the local read in flight, and
	// the fetch's result. fetching is set while a backend fetch may still
	// complete inline.
	run      int
	cursor   int64
	n        int64
	fetched  disk.Payload
	fetchErr error
	fetching bool

	// Insertion: the payload (the result, for a read), the guard, the
	// outcome, and the process blocked in InsertWrite or InsertRead.
	payload disk.Payload
	guard   func() bool
	ok      bool
	proc    *sim.Proc

	// Continuations, built once per record.
	stepFn    func()
	fetchedFn func(disk.Payload, error)
	waiter    *sim.Waiter // devLock waits
}

// newOp takes an operation record from the pool, or builds one.
func (pl *pipeline) newOp(kind opKind) *op {
	var o *op
	if n := len(pl.free) - 1; n >= 0 {
		o = pl.free[n]
		pl.free[n] = nil
		pl.free = pl.free[:n]
	} else {
		o = &op{pl: pl}
		o.stepFn = o.step
		o.fetchedFn = o.fetchDone
		o.waiter = pl.m.K.NewWaiter(o.woken)
	}
	o.kind, o.pc = kind, stepBegin
	return o
}

// putOp returns a finished record to the pool, dropping its references.
func (pl *pipeline) putOp(o *op) {
	o.cmd, o.payload, o.guard, o.ok = command{}, disk.Payload{}, nil, false
	pl.free = append(pl.free, o)
}

// sleep schedules the operation's next step d from now.
func (o *op) sleep(d sim.Duration) { o.pl.m.K.After(d, o.stepFn) }

// woken continues the operation after a devLock wait.
func (o *op) woken(bool) { o.step() }

// fetchDone receives the backend fetch's result. A fetch that completes
// inline leaves the running step to continue; a later one resumes it.
func (o *op) fetchDone(pl disk.Payload, err error) {
	o.fetched, o.fetchErr = pl, err
	if o.fetching {
		o.fetching = false
		return
	}
	o.step()
}

// step runs the operation until it blocks or ends.
func (o *op) step() {
	pl := o.pl
	for {
		switch o.pc {
		case stepBegin:
			o.sp = pl.begin(o.cmd.cause, opNames[o.kind], o.cmd.lba, o.cmd.count)
			o.pc = stepLock
		case stepLock:
			if !pl.devLock.AcquireWait(o.waiter) {
				return
			}
			o.pc = stepTake
		case stepTake:
			if !pl.dev.take(o, o.kind >= opInsertWrite) {
				return
			}
			if !o.taken() {
				return
			}
		case stepGap:
			o.gap()
		case stepFetch:
			run := pl.runs[o.run]
			o.pc = stepFetched
			o.fetching = true
			pl.backend.Fetch(o.sp, run.LBA, run.Count, o.fetchedFn)
			if o.fetching {
				o.fetching = false // the fetch completes later and resumes the step
				return
			}
		case stepLocal:
			if !pl.dev.transfer(o, false, disk.Payload{LBA: o.cursor, Count: o.n}) {
				return
			}
			pl.parts = append(pl.parts, pl.m.Disk.Store().ReadPayload(o.cursor, o.n))
			o.cursor += o.n
			o.pc = stepGap
		case stepFetched:
			if err := o.fetchErr; err != nil {
				// Server unreachable: complete the command rather than
				// leave the guest waiting on it.
				run := pl.runs[o.run]
				if pl.m.Trace != nil { // the error text allocates; skip it when not tracing
					pl.m.Trace.Emit(pl.m.Name, "mediator", "fetch-failed", trace.Int("lba", run.LBA),
						trace.Int("count", run.Count), trace.Str("err", err.Error()))
				}
				o.fetchErr = nil
				o.pc = stepFinish
				continue
			}
			o.pc = stepWrite
		case stepWrite:
			if !pl.dev.transfer(o, true, o.fetched) { // write-through to the local disk
				return
			}
			run := pl.runs[o.run]
			pl.backend.MarkFilled(run.LBA, run.Count)
			pl.stats.RedirectBytes.Add(run.Count * disk.SectorSize)
			pl.parts = append(pl.parts, o.fetched)
			o.fetched = disk.Payload{}
			o.cursor = run.End()
			o.run++
			o.pc = stepGap
		case stepFinish:
			if !pl.dev.finish(o) {
				return
			}
			pl.parts = pl.parts[:0]
			pl.give(false)
			o.end()
			return
		case stepInsert:
			write := o.kind == opInsertWrite
			if !pl.dev.transfer(o, write, o.payload) {
				return
			}
			if !write {
				o.payload = pl.m.Disk.Store().ReadPayload(o.cmd.lba, o.cmd.count)
			}
			pl.give(true)
			o.ok = true
			o.end()
			return
		}
	}
}

// taken runs once the operation holds the device and picks its next
// step; it reports false if the operation ended.
func (o *op) taken() bool {
	pl := o.pl
	switch o.kind {
	case opRedirect:
		pl.runs = pl.backend.AppendUnfilledRuns(pl.runs[:0], o.cmd.lba, o.cmd.count)
		pl.parts = pl.parts[:0]
		o.run, o.cursor = 0, o.cmd.lba
		o.pc = stepGap
	case opProtect:
		// The VMM's bitmap save area (§3.3): the data never moves, reads
		// observe zeros, and the command still completes with an
		// interrupt.
		if !o.cmd.write && !o.cmd.hintDiscard {
			zero := disk.Payload{LBA: o.cmd.lba, Count: o.cmd.count, Source: disk.Zero}
			pl.parts = append(pl.parts[:0], zero)
			pl.copyToGuest(o.cmd, pl.parts)
			pl.parts = pl.parts[:0]
		}
		o.pc = stepFinish
	case opInsertWrite:
		if o.guard != nil && !o.guard() {
			pl.give(false)
			o.end()
			return false
		}
		pl.dev.own()
		pl.stats.Inserted.Inc()
		pl.stats.InsertedBytes.Add(o.payload.Count * disk.SectorSize)
		o.pc = stepInsert
	case opInsertRead:
		pl.dev.own()
		o.payload = disk.Payload{LBA: o.cmd.lba, Count: o.cmd.count}
		o.pc = stepInsert
	}
	return true
}

// gap advances a redirect's copy-on-read: unfilled runs come from the
// server and are written through to the local disk (§3.1: "also writes
// the data to the local disk for future use"), the filled gaps between
// them are read locally in chunks of at most 2048 sectors, and once the
// range is assembled it is copied into the guest's buffers (unless a
// discard hint says the guest will not look) before the command
// completes.
func (o *op) gap() {
	pl := o.pl
	upto := o.cmd.lba + o.cmd.count
	if o.run < len(pl.runs) {
		upto = pl.runs[o.run].LBA
	}
	switch {
	case o.cursor < upto: // already-filled gap: read from the local disk
		o.n = min(upto-o.cursor, 2048)
		o.pc = stepLocal
	case o.run < len(pl.runs):
		o.pc = stepFetch
	default:
		if !o.cmd.hintDiscard {
			pl.copyToGuest(o.cmd, pl.parts)
		}
		o.pc = stepFinish
	}
}

// end closes the operation's span and retires it: an insertion's result
// goes to its process, which is resumed; a redirect or protect record
// returns to the pool.
func (o *op) end() {
	o.sp.End()
	o.sp = nil
	if p := o.proc; p != nil {
		o.proc = nil
		p.Resume()
		return
	}
	o.pl.putOp(o)
}

// give returns the device to the guest and releases devLock.
func (pl *pipeline) give(owned bool) {
	pl.dev.give(owned)
	pl.devLock.Release()
}

// begin opens a mediator span for one mediated operation.
func (pl *pipeline) begin(cause *trace.Span, name string, lba, count int64) *trace.Span {
	return pl.m.Trace.BeginChild(cause, pl.m.Name, "mediator", name,
		trace.Int("lba", lba), trace.Int("count", count))
}
