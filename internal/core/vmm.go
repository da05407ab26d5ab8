package core

import (
	"fmt"

	"repro/internal/aoe"
	"repro/internal/cpuvirt"
	"repro/internal/ethernet"
	"repro/internal/hw/disk"
	"repro/internal/hw/mem"
	"repro/internal/machine"
	"repro/internal/mediator"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Phase is the deployment lifecycle state (paper §3.1, Figure 1).
type Phase int

// The four phases of the BMcast deployment process, plus the terminal
// failure state a hung deployment is forced into by the watchdog.
// PhaseFailed sorts after PhaseBareMetal so WaitPhase(PhaseBareMetal)
// wakes on failure too instead of blocking forever.
const (
	PhaseInitialization Phase = iota
	PhaseDeployment
	PhaseDevirtualization
	PhaseBareMetal
	PhaseFailed
)

func (p Phase) String() string {
	switch p {
	case PhaseInitialization:
		return "initialization"
	case PhaseDeployment:
		return "deployment"
	case PhaseDevirtualization:
		return "de-virtualization"
	case PhaseFailed:
		return "failed"
	default:
		return "bare-metal"
	}
}

// SpanName is the phase's span name in the deployment trace (category
// "phase"). These are part of the trace format and stay CamelCase even
// though String is free-form.
func (p Phase) SpanName() string {
	switch p {
	case PhaseInitialization:
		return "Initialization"
	case PhaseDeployment:
		return "Deployment"
	case PhaseDevirtualization:
		return "Devirtualization"
	case PhaseFailed:
		return "Failed"
	default:
		return "BareMetal"
	}
}

// Config holds the VMM's tunables.
type Config struct {
	// VMMBootTime is the network boot + initialization time of the VMM
	// itself; the paper measures 5 seconds (parallelized init, only the
	// dedicated NIC brought up).
	VMMBootTime sim.Duration
	// VMMMemory is the reserved memory, hidden from the guest (128 MB in
	// the prototype).
	VMMMemory int64
	// CopyBlockSectors is the background-copy unit (1 MB).
	CopyBlockSectors int64
	// FIFODepth bounds the retriever→writer queue.
	FIFODepth int

	// Moderation (§3.3): when the guest's disk I/O frequency exceeds
	// GuestIOFreqThreshold (ops/sec), the writer waits SuspendInterval;
	// otherwise it writes one block every WriteInterval.
	GuestIOFreqThreshold float64
	WriteInterval        sim.Duration
	SuspendInterval      sim.Duration

	// Polling bounds: the device poll interval is derived from the
	// network RTT estimate, clamped to [MinPoll, MaxPoll] (§4.1).
	MinPoll, MaxPoll sim.Duration

	// CopyCPUPerBlock is the VMM CPU time consumed per copied block
	// (packet handling, checksums, queue management) — the "5% of total
	// CPU time for handling threads" the paper reports.
	CopyCPUPerBlock sim.Duration

	// DeployMemPenalty is the nested-paging/TLB-pollution slowdown on
	// memory-bound guest work while the VMM is present (§5.2: TLB misses
	// up 5×, miss latency doubled ⇒ ≈6% on memory-heavy benchmarks).
	DeployMemPenalty float64
	// CoreTax is the VMM core's fixed CPU share while present (≈1%).
	CoreTax float64
	// DeployJitter is the scheduling jitter the deploying VMM adds
	// (small: polling is preemption-timer-driven).
	DeployJitter sim.Duration
	// VirtualIRQ switches the mediators to the rejected
	// interrupt-injection design, for the ablation benchmark.
	VirtualIRQ bool

	// StallTimeout arms the deployment watchdog: if streaming progress
	// (fetched bytes, copied bytes, or guest I/O) stays flat for this long
	// during the deployment phase, the VMM transitions to PhaseFailed
	// instead of wedging the retriever forever. Zero disables the stall
	// detector.
	StallTimeout sim.Duration
	// DeployDeadline bounds the whole deployment phase; exceeding it fails
	// the deployment even if slow progress is still trickling in. Zero
	// disables the deadline.
	DeployDeadline sim.Duration
}

// DefaultConfig returns the prototype's calibrated configuration.
func DefaultConfig() Config {
	return Config{
		VMMBootTime:          5 * sim.Second,
		VMMMemory:            128 << 20,
		CopyBlockSectors:     2048, // 1 MB
		FIFODepth:            8,
		GuestIOFreqThreshold: 100,
		WriteInterval:        21 * sim.Millisecond,
		SuspendInterval:      200 * sim.Millisecond,
		MinPoll:              50 * sim.Microsecond,
		MaxPoll:              600 * sim.Microsecond,
		CopyCPUPerBlock:      8 * sim.Millisecond,
		DeployMemPenalty:     0.06,
		CoreTax:              0.01,
		DeployJitter:         300 * sim.Nanosecond,
		StallTimeout:         2 * sim.Minute,
	}
}

// VMM is a running BMcast instance on one machine.
type VMM struct {
	Cfg Config
	M   *machine.Machine

	phase        Phase
	PhaseChanged *sim.Signal

	med    mediator.Mediator
	init   *aoe.Initiator
	bitmap *Bitmap
	region mem.Region

	imageSectors int64
	saveLBA      int64 // on-disk bitmap save region (protected)
	saveSectors  int64

	// Guest I/O frequency estimation for moderation: completed windows
	// feed GuestIORate.
	ioWindowStart sim.Time
	ioWindowCount int64
	ioRate        float64

	lastGuestLBA int64
	guestTouched bool

	fifo *sim.Queue[disk.Payload]
	// inflight tracks fetched-but-not-yet-written blocks so the
	// retriever's locality rescans never fetch a block twice.
	inflight map[int64]int64

	stopped bool
	err     error // terminal failure cause once PhaseFailed is reached

	// The mediator's fetch in flight: its callback, and the cached
	// continuation that accounts the bytes and calls it.
	fetchDone func(disk.Payload, error)
	fetchedFn func(disk.Payload, error)

	// The retriever's fetch in flight: the retriever process, suspended
	// until the cached continuation copyFetchedFn resumes it with the
	// result in copyPl and copyErr.
	retrieverProc *sim.Proc
	copyFetchedFn func(disk.Payload, error)
	copyPl        disk.Payload
	copyErr       error

	// runs is writeBlock's scratch list of unfilled runs. One buffer
	// serves every call: only the writer process calls writeBlock.
	runs []Run

	// Timings and counters.
	BootedAt     sim.Time
	DeployedAt   sim.Time
	DevirtedAt   sim.Time
	FetchedBytes metrics.Counter
	CopiedBytes  metrics.Counter
	Suspends     metrics.Counter
	GuestIOs     metrics.Counter
	// BitmapHits/BitmapMisses classify AllFilled checks: a hit means the
	// guest's read needs no redirection. CopyConflicts counts background
	// writes cancelled by the insertion guard because a racing guest write
	// filled the run first (guest-write-wins, §3.3).
	BitmapHits    metrics.Counter
	BitmapMisses  metrics.Counter
	CopyConflicts metrics.Counter
	WatchdogFires metrics.Counter

	// phaseSpan is the open span of the current lifecycle phase (category
	// "phase" on the machine's trace recorder; nil recorder: nil spans).
	phaseSpan *trace.Span
}

// Boot network-boots the VMM on machine m and enters the deployment
// phase: reserve memory, enter VMX, attach the mediator, start the
// background copy. serverMAC/major/minor address the AoE target exporting
// the instance's image; vmmNIC is the dedicated NIC index.
func Boot(p *sim.Proc, m *machine.Machine, cfg Config, vmmNIC int, serverMAC ethernet.MAC, major uint16, minor uint8, imageSectors int64) (*VMM, error) {
	if vmmNIC >= len(m.NICs) {
		return nil, fmt.Errorf("core: machine has no NIC %d for the VMM", vmmNIC)
	}
	v := &VMM{
		Cfg:          cfg,
		M:            m,
		phase:        PhaseInitialization,
		PhaseChanged: m.K.NewSignal(m.Name + ".vmm.phase"),
		imageSectors: imageSectors,
		fifo:         sim.NewQueue[disk.Payload](m.K, m.Name+".vmm.fifo"),
		inflight:     make(map[int64]int64),
	}
	v.fetchedFn = v.fetched
	v.copyFetchedFn = v.copyFetched
	v.phaseSpan = m.Trace.Begin(m.Name, "phase", PhaseInitialization.SpanName())
	l := metrics.L("node", m.Name)
	m.Metrics.RegisterCounter("vmm.fetched_bytes", &v.FetchedBytes, l)
	m.Metrics.RegisterCounter("vmm.copied_bytes", &v.CopiedBytes, l)
	m.Metrics.RegisterCounter("vmm.suspends", &v.Suspends, l)
	m.Metrics.RegisterCounter("vmm.guest_ios", &v.GuestIOs, l)
	m.Metrics.RegisterCounter("vmm.bitmap_hits", &v.BitmapHits, l)
	m.Metrics.RegisterCounter("vmm.bitmap_misses", &v.BitmapMisses, l)
	m.Metrics.RegisterCounter("vmm.copy_conflicts", &v.CopyConflicts, l)
	m.Metrics.RegisterCounter("vmm.watchdog_fires", &v.WatchdogFires, l)
	m.World.Instrument(m.Metrics, m.Trace, m.Name)

	// Initialization phase: minimal VMM boot — only the dedicated NIC is
	// initialized; all other devices are left for the guest (§3.1).
	p.Sleep(cfg.VMMBootTime)
	v.region = m.Firmware.ReserveForVMM(cfg.VMMMemory)
	m.World.EnterVMX()
	m.World.Overheads.MemPenalty = cfg.DeployMemPenalty
	m.World.Overheads.CPUTaxStatic = cfg.CoreTax
	m.World.Overheads.SchedJitter = cfg.DeployJitter

	v.init = aoe.NewInitiator(m.K, m.NICs[vmmNIC], serverMAC, major, minor)
	v.init.Instrument(m.Metrics, m.Trace, m.Name)
	v.init.SetPolled(v.PollInterval) // the VMM's NIC drivers are polled (§4.3)
	v.bitmap = NewBitmap(imageSectors)

	// The bitmap save region lives in unused space past the image,
	// hidden from the guest (§3.3).
	v.saveLBA = imageSectors
	v.saveSectors = (v.bitmap.PersistSize() + disk.SectorSize - 1) / disk.SectorSize
	if v.saveLBA+v.saveSectors > m.Disk.Sectors {
		return nil, fmt.Errorf("core: no room for the bitmap save region")
	}

	switch m.Storage {
	case machine.StorageIDE:
		md := mediator.NewIDE(m, v, v.region)
		md.VirtualIRQ = cfg.VirtualIRQ
		v.med = md
	default:
		md := mediator.NewAHCI(m, v, v.region)
		md.VirtualIRQ = cfg.VirtualIRQ
		v.med = md
	}
	v.med.Attach()
	v.med.Stats().Register(m.Metrics, m.Name)
	v.BootedAt = p.Now()
	v.setPhase(PhaseDeployment)

	v.retrieverProc = m.K.Spawn(m.Name+".vmm.retriever", v.retriever)
	m.K.Spawn(m.Name+".vmm.writer", v.writer)
	if cfg.StallTimeout > 0 || cfg.DeployDeadline > 0 {
		m.K.Spawn(m.Name+".vmm.watchdog", v.watchdog)
	}
	return v, nil
}

// Phase reports the current lifecycle phase.
func (v *VMM) Phase() Phase { return v.phase }

// Err reports the terminal failure cause once the VMM has reached
// PhaseFailed, and nil otherwise.
func (v *VMM) Err() error { return v.err }

// progressSignature condenses the streaming state the watchdog monitors:
// any fetch, background copy, or guest I/O counts as forward progress
// (guest I/O included so moderation suspends under an active guest don't
// read as a stall).
func (v *VMM) progressSignature() int64 {
	return v.FetchedBytes.Value() + v.CopiedBytes.Value() + v.GuestIOs.Value()
}

// watchdog guards the deployment phase against silent wedges: a dead AoE
// server with no secondary, a partitioned link, a retriever stuck in
// retry loops. On a stall (no progress for StallTimeout) or a blown
// DeployDeadline it forces the VMM into PhaseFailed with a wrapped error
// instead of letting the deployment hang forever.
func (v *VMM) watchdog(p *sim.Proc) {
	start := p.Now()
	tick := v.Cfg.StallTimeout / 4
	if tick <= 0 {
		tick = v.Cfg.DeployDeadline / 8
	}
	lastSig := v.progressSignature()
	lastProgress := p.Now()
	for {
		p.Sleep(tick)
		if v.phase != PhaseDeployment || v.stopped {
			return
		}
		if sig := v.progressSignature(); sig != lastSig {
			lastSig = sig
			lastProgress = p.Now()
		} else if v.Cfg.StallTimeout > 0 && p.Now().Sub(lastProgress) >= v.Cfg.StallTimeout {
			v.fail(fmt.Errorf("no streaming progress for %v", v.Cfg.StallTimeout))
			return
		}
		if v.Cfg.DeployDeadline > 0 && p.Now().Sub(start) >= v.Cfg.DeployDeadline {
			v.fail(fmt.Errorf("deployment deadline %v exceeded", v.Cfg.DeployDeadline))
			return
		}
	}
}

// fail transitions a deployment-phase VMM into the terminal PhaseFailed:
// the copy pipeline is shut down, the initiator closed so pending requests
// error out fast, and the cause preserved for the controller. The mediator
// stays attached — the machine needs a scrub/power-cycle anyway.
func (v *VMM) fail(cause error) {
	if v.phase != PhaseDeployment || v.stopped {
		return
	}
	v.err = fmt.Errorf("core: deployment failed: %w", cause)
	v.stopped = true
	v.WatchdogFires.Inc()
	v.M.Trace.Emit(v.M.Name, "vmm", "watchdog", trace.Str("cause", cause.Error()))
	if !v.fifo.Closed() {
		v.fifo.Close()
	}
	v.init.Close()
	v.setPhase(PhaseFailed)
}

func (v *VMM) setPhase(ph Phase) {
	v.phase = ph
	prev := v.phaseSpan
	prev.End()
	v.phaseSpan = v.M.Trace.Begin(v.M.Name, "phase", ph.SpanName())
	// Chain the phases with flow edges so the whole lifecycle reads as
	// one causal path in the exported trace.
	v.phaseSpan.LinkFlowFrom(prev)
	v.PhaseChanged.Broadcast()
}

// PhaseSpan returns the open trace span of the current lifecycle phase
// (nil when tracing is off).
func (v *VMM) PhaseSpan() *trace.Span { return v.phaseSpan }

// Mediator exposes the device mediator (for stats and tests).
func (v *VMM) Mediator() mediator.Mediator { return v.med }

// Bitmap exposes the block bitmap (for verification).
func (v *VMM) Bitmap() *Bitmap { return v.bitmap }

// Initiator exposes the AoE initiator (for stats).
func (v *VMM) Initiator() *aoe.Initiator { return v.init }

// WaitPhase blocks until the VMM reaches at least the given phase.
func (v *VMM) WaitPhase(p *sim.Proc, ph Phase) {
	p.WaitCond(v.PhaseChanged, func() bool { return v.phase >= ph })
}

// --- mediator.Backend implementation -----------------------------------

// clip restricts a range to the image-tracked area; sectors past the image
// are always local (the guest owns them from the start).
func (v *VMM) clip(lba, count int64) (int64, int64) {
	if lba >= v.imageSectors {
		return 0, 0
	}
	if lba+count > v.imageSectors {
		count = v.imageSectors - lba
	}
	return lba, count
}

// AllFilled implements mediator.Backend.
func (v *VMM) AllFilled(lba, count int64) bool {
	lba, count = v.clip(lba, count)
	if count == 0 || v.bitmap.AllFilled(lba, count) {
		v.BitmapHits.Inc()
		return true
	}
	v.BitmapMisses.Inc()
	return false
}

// AppendUnfilledRuns implements mediator.Backend.
func (v *VMM) AppendUnfilledRuns(dst []Run, lba, count int64) []Run {
	lba, count = v.clip(lba, count)
	if count == 0 {
		return dst
	}
	return v.bitmap.AppendUnfilledRuns(dst, lba, count)
}

// Fetch implements mediator.Backend: retrieve blocks from the server over
// the extended AoE protocol. The mediator has at most one fetch in flight,
// so the VMM keeps its callback and completes it through one cached
// continuation.
func (v *VMM) Fetch(cause *trace.Span, lba, count int64, done func(disk.Payload, error)) {
	v.fetchDone = done
	v.init.ReadAsync(cause, lba, count, v.fetchedFn)
}

// fetched completes the mediator's fetch.
func (v *VMM) fetched(pl disk.Payload, err error) {
	done := v.fetchDone
	v.fetchDone = nil
	if err == nil {
		v.FetchedBytes.Add(pl.Count * disk.SectorSize)
	}
	done(pl, err)
}

// MarkFilled implements mediator.Backend.
func (v *VMM) MarkFilled(lba, count int64) {
	lba, count = v.clip(lba, count)
	if count > 0 {
		v.bitmap.MarkFilled(lba, count)
	}
}

// GuestWrote implements mediator.Backend: guest data fills blocks.
func (v *VMM) GuestWrote(lba, count int64) {
	v.noteGuestIO(lba + count)
	v.MarkFilled(lba, count)
}

// GuestRead implements mediator.Backend.
func (v *VMM) GuestRead(lba, count int64) {
	v.noteGuestIO(lba + count)
}

func (v *VMM) noteGuestIO(endLBA int64) {
	v.GuestIOs.Inc()
	v.lastGuestLBA = endLBA
	v.guestTouched = true
	const window = 100 * sim.Millisecond
	now := v.M.K.Now()
	for now.Sub(v.ioWindowStart) >= window {
		v.ioRate = float64(v.ioWindowCount) / window.Seconds()
		v.ioWindowCount = 0
		v.ioWindowStart = v.ioWindowStart.Add(window)
		if v.ioWindowStart.Add(window) < now {
			v.ioRate = 0
			v.ioWindowStart = now
		}
	}
	v.ioWindowCount++
}

// GuestIORate reports the guest I/O frequency (ops/sec) over the last
// completed measurement window.
func (v *VMM) GuestIORate() float64 {
	v.noteGuestIOWindowRoll()
	return v.ioRate
}

func (v *VMM) noteGuestIOWindowRoll() {
	const window = 100 * sim.Millisecond
	now := v.M.K.Now()
	for now.Sub(v.ioWindowStart) >= window {
		v.ioRate = float64(v.ioWindowCount) / window.Seconds()
		v.ioWindowCount = 0
		v.ioWindowStart = v.ioWindowStart.Add(window)
		if v.ioWindowStart.Add(window) < now {
			v.ioRate = 0
			v.ioWindowStart = now
		}
	}
}

// PollInterval implements mediator.Backend: derived from the smoothed
// network RTT, clamped (§4.1).
func (v *VMM) PollInterval() sim.Duration {
	d := v.init.RTT() / 2
	if d < v.Cfg.MinPoll {
		d = v.Cfg.MinPoll
	}
	if d > v.Cfg.MaxPoll {
		d = v.Cfg.MaxPoll
	}
	return d
}

// Protected implements mediator.Backend: the on-disk bitmap save area.
func (v *VMM) Protected(lba, count int64) bool {
	return lba < v.saveLBA+v.saveSectors && v.saveLBA < lba+count
}

// --- background copy ----------------------------------------------------

// retriever fetches unfilled blocks from the server and feeds the FIFO
// (§3.3: a retriever thread and a writer thread connected by a queue).
func (v *VMM) retriever(p *sim.Proc) {
	var cursor Cursor
	for v.phase == PhaseDeployment && !v.stopped {
		if v.fifo.Len() >= v.Cfg.FIFODepth {
			// Back off while the writer drains; never sleep zero (a
			// full-speed WriteInterval must not spin the clock).
			backoff := v.Cfg.WriteInterval
			if backoff < sim.Millisecond {
				backoff = sim.Millisecond
			}
			p.Sleep(backoff)
			continue
		}
		// Locality heuristic: follow the guest's last access to minimize
		// seeks between guest I/O and the background copy.
		if v.guestTouched {
			cursor = Cursor{pos: v.lastGuestLBA}
			v.guestTouched = false
		}
		run, ok := v.nextCopyRun(&cursor)
		if !ok {
			if len(v.inflight) > 0 {
				// Everything left is already in the FIFO; let the
				// writer drain.
				backoff := v.Cfg.WriteInterval
				if backoff < sim.Millisecond {
					backoff = sim.Millisecond
				}
				p.Sleep(backoff)
				continue
			}
			break // image complete
		}
		sp := v.M.Trace.BeginChild(v.phaseSpan, v.M.Name, "vmm", "bg-fetch",
			trace.Int("lba", run.LBA), trace.Int("count", run.Count))
		// The AoE round trip parents on the fetch span, not on the
		// guest's critical path.
		v.init.ReadAsync(sp, run.LBA, run.Count, v.copyFetchedFn)
		p.Suspend()
		pl, err := v.copyPl, v.copyErr
		sp.End()
		if err != nil {
			if v.M.Trace != nil { // the error text allocates; skip it when not tracing
				v.M.Trace.Emit(v.M.Name, "vmm", "bg-fetch-failed", trace.Int("lba", run.LBA),
					trace.Int("count", run.Count), trace.Str("err", err.Error()))
			}
			p.Sleep(100 * sim.Millisecond) // back off and retry
			continue
		}
		v.FetchedBytes.Add(run.Count * disk.SectorSize)
		if v.stopped || v.phase != PhaseDeployment {
			break // the watchdog closed the FIFO while we were fetching
		}
		v.M.World.RecordVMMWork(v.Cfg.CopyCPUPerBlock / 2)
		v.inflight[pl.LBA] = pl.Count
		v.fifo.Push(pl)
	}
	if !v.fifo.Closed() {
		v.fifo.Close()
	}
}

// copyFetched completes the retriever's fetch and resumes the retriever.
func (v *VMM) copyFetched(pl disk.Payload, err error) {
	v.copyPl, v.copyErr = pl, err
	v.retrieverProc.Resume()
}

// nextCopyRun finds the next unfilled run not already fetched into the
// FIFO, scanning past in-flight blocks. The cursor advances past every run
// examined, so the next call resumes where this one left off.
func (v *VMM) nextCopyRun(cursor *Cursor) (Run, bool) {
	for tries := 0; tries < v.Cfg.FIFODepth+2; tries++ {
		run, ok := v.bitmap.NextUnfilledFrom(cursor, v.Cfg.CopyBlockSectors)
		if !ok {
			return Run{}, false
		}
		overlap := false
		for lba, count := range v.inflight {
			if run.LBA < lba+count && lba < run.End() {
				overlap = true
				break
			}
		}
		if !overlap {
			return run, true
		}
	}
	return Run{}, false
}

// writer drains the FIFO onto the local disk through the mediator's
// multiplexing path, moderated by the guest's I/O frequency.
func (v *VMM) writer(p *sim.Proc) {
	for {
		pl, ok := v.fifo.Pop(p)
		if !ok {
			break
		}
		// Moderation (§3.3): while the guest's disk I/O frequency
		// exceeds the threshold, keep waiting for the suspend interval.
		// Below the threshold, pace at the write interval, stretched in
		// proportion to how close the guest is to the threshold so that
		// moderate guest load still sees a gentle copy.
		for v.GuestIORate() > v.Cfg.GuestIOFreqThreshold {
			v.Suspends.Inc()
			p.Sleep(v.Cfg.SuspendInterval)
		}
		pace := float64(v.Cfg.WriteInterval) * (1 + v.GuestIORate()/v.Cfg.GuestIOFreqThreshold)
		p.Sleep(sim.Duration(pace))
		sp := v.M.Trace.BeginChild(v.phaseSpan, v.M.Name, "vmm", "bg-write",
			trace.Int("lba", pl.LBA), trace.Int("count", pl.Count))
		v.writeBlock(p, sp, pl)
		sp.End()
		delete(v.inflight, pl.LBA)
	}
	if v.bitmap.Complete() && v.phase == PhaseDeployment && !v.stopped {
		v.DeployedAt = p.Now()
		v.Devirtualize(p)
	}
}

// writeBlock writes the still-unfilled parts of a fetched block, re-
// checking the bitmap atomically (via the insertion guard) so a guest
// write racing with the copy always wins (§3.3). The insertions' spans
// parent on cause.
func (v *VMM) writeBlock(p *sim.Proc, cause *trace.Span, pl disk.Payload) {
	for {
		v.runs = v.bitmap.AppendUnfilledRuns(v.runs[:0], pl.LBA, pl.Count)
		if len(v.runs) == 0 {
			return
		}
		progressed := false
		for _, run := range v.runs {
			part := disk.Payload{LBA: run.LBA, Count: run.Count, Source: pl.Source}
			guard := func() bool {
				// Atomic re-check after device acquisition: write only
				// if no sector of the run was filled meanwhile.
				return v.bitmap.NoneFilled(run.LBA, run.Count)
			}
			if v.med.InsertWrite(p, cause, part, guard) {
				v.bitmap.MarkFilled(run.LBA, run.Count)
				v.CopiedBytes.Add(run.Count * disk.SectorSize)
				v.M.World.RecordVMMWork(v.Cfg.CopyCPUPerBlock / 2)
				progressed = true
			} else {
				v.CopyConflicts.Inc() // a racing guest write won (§3.3)
			}
		}
		if !progressed {
			// Every run was invalidated by guest writes; recompute.
			continue
		}
		return
	}
}

// --- de-virtualization ---------------------------------------------------

// Devirtualize performs the seamless hand-off to bare metal (§3.4): wait
// for a consistent hardware state, remove the mediator taps, turn nested
// paging off CPU by CPU without IPIs, and terminate virtualization.
func (v *VMM) Devirtualize(p *sim.Proc) {
	v.setPhase(PhaseDevirtualization)
	for !v.med.Quiesced() {
		p.Sleep(v.PollInterval())
	}
	v.med.Detach()
	v.init.Close()
	v.M.World.Devirtualize(p)
	v.M.World.Overheads = cpuvirt.Overheads{} // zero overhead from here on
	v.DevirtedAt = p.Now()
	v.setPhase(PhaseBareMetal)
}

// Scrub tears a failed VMM off its machine so the controller can sanitize
// and re-lease it: wait for in-flight mediated commands to drain, remove
// the taps, and leave virtualization. Only meaningful in PhaseFailed.
func (v *VMM) Scrub(p *sim.Proc) {
	if v.phase != PhaseFailed {
		return
	}
	for !v.med.Quiesced() {
		p.Sleep(v.PollInterval())
	}
	v.med.Detach()
	v.M.World.Devirtualize(p)
	v.M.World.Overheads = cpuvirt.Overheads{}
}

// Shutdown stops a deployment in progress for a machine power-off: the
// copy threads drain, the bitmap is persisted to its protected on-disk
// region, and the VMM detaches (§3.3: "In case of shutdown and reboot,
// the VMM saves the bitmap on the local disk"). A later Boot with Resume
// picks the deployment up where it stopped.
func (v *VMM) Shutdown(p *sim.Proc) error {
	if v.phase != PhaseDeployment {
		return fmt.Errorf("core: shutdown in phase %v", v.phase)
	}
	v.stopped = true
	if !v.fifo.Closed() {
		v.fifo.Close()
	}
	if err := v.SaveBitmap(p); err != nil {
		return err
	}
	for !v.med.Quiesced() {
		p.Sleep(v.PollInterval())
	}
	v.med.Detach()
	v.init.Close()
	v.setPhase(PhaseInitialization) // instance is off; no phase applies
	return nil
}

// Resume restores a previously saved bitmap after a reboot, so the
// background copy skips everything already deployed. Call right after
// Boot on the rebooted machine.
func (v *VMM) Resume(p *sim.Proc) error {
	return v.LoadBitmap(p)
}

// --- bitmap persistence --------------------------------------------------

// SaveBitmap persists the bitmap into the protected on-disk region, for
// shutdown/reboot during the deployment phase (§3.3).
func (v *VMM) SaveBitmap(p *sim.Proc) error {
	blob := v.bitmap.Marshal()
	src := disk.NewBuffer(v.saveLBA, blob, "vmm-bitmap")
	pl := disk.Payload{LBA: v.saveLBA, Count: v.saveSectors, Source: src}
	if !v.med.InsertWrite(p, nil, pl, nil) {
		return fmt.Errorf("core: bitmap save was refused")
	}
	return nil
}

// LoadBitmap restores the bitmap from the protected region, replacing the
// in-memory state. It fails cleanly if the region holds no valid bitmap.
func (v *VMM) LoadBitmap(p *sim.Proc) error {
	pl, ok := v.med.InsertRead(p, nil, v.saveLBA, v.saveSectors)
	if !ok {
		return fmt.Errorf("core: bitmap load was refused")
	}
	b, err := UnmarshalBitmap(pl.Bytes())
	if err != nil {
		return err
	}
	if b.Sectors() != v.imageSectors {
		return fmt.Errorf("core: saved bitmap covers %d sectors, image has %d", b.Sectors(), v.imageSectors)
	}
	v.bitmap = b
	return nil
}

var _ mediator.Backend = (*VMM)(nil)
