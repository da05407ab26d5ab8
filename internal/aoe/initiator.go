package aoe

import (
	"fmt"

	"repro/internal/ethernet"
	"repro/internal/hw/disk"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Transport is the link the initiator speaks through: a dedicated NIC in
// the paper's chosen configuration, or the shared-NIC mediator's
// interleaved path in the §6 alternative.
type Transport interface {
	Send(f *ethernet.Frame)
	MTU() int64
	// SetOnReceive installs interrupt-style delivery: fn consumes every
	// arriving frame. nil queues arriving frames on the rx ring instead.
	SetOnReceive(fn func(*ethernet.Frame))
	// SetOnArrival installs a hook that runs after each frame is queued
	// on the rx ring (nil: none). The frame stays queued for TryRecv.
	SetOnArrival(fn func())
	// TryRecv takes the oldest queued frame, if any.
	TryRecv() (*ethernet.Frame, bool)
	// RxPending reports the number of queued frames.
	RxPending() int
}

// TargetAddr names one AoE target: a server MAC plus shelf/slot address.
type TargetAddr struct {
	Server ethernet.MAC
	Major  uint16
	Minor  uint8
}

// Initiator is the client side of the extended AoE protocol: it converts
// sector ranges into per-fragment requests, reassembles responses, and
// retransmits fragments lost on the wire. BMcast's VMM embeds one; the
// image-copy installer uses one too.
type Initiator struct {
	k      *sim.Kernel
	nic    Transport
	Server ethernet.MAC
	Major  uint16
	Minor  uint8

	// targets is the failover list; targets[cur] mirrors Server/Major/Minor.
	// When a request exhausts MaxRetries (or the target answers with an
	// error) the initiator rotates to the next entry instead of failing.
	targets []TargetAddr
	cur     int

	perFrame int64
	nextReq  uint32
	pending  map[uint32]*pendingReq
	// reqPool recycles completed request records (and their per-fragment
	// slices and progress signals), so a steady stream of round trips —
	// a 32 GB background copy issues millions — does not allocate a fresh
	// record per request.
	reqPool []*pendingReq
	// framePool recycles outbound request frames; they come back when the
	// target (or a drop point on the path) releases them.
	framePool FramePool

	// RTO management: exponentially weighted RTT estimate; the timeout
	// fires only after no fragment progress for the current RTO.
	rtt sim.Duration

	// MaxRetries bounds retransmission rounds per request before failing.
	MaxRetries int

	closed bool

	// Polled receive (SetPolled): ticks on a grid, run only when a frame
	// waits. grid is the last tick's instant and step the interval after
	// it; armed reports whether a tick is scheduled. tickFn caches the
	// method value in.tick, so arming allocates nothing.
	interval func() sim.Duration
	rank     sim.Rank
	tickFn   func()
	grid     sim.Time
	step     sim.Duration
	armed    bool

	Requests       metrics.Counter
	FragmentsSent  metrics.Counter
	FragmentsRecvd metrics.Counter
	Retransmits    metrics.Counter
	Failovers      metrics.Counter
	BytesRead      metrics.Counter
	BytesWritten   metrics.Counter

	// Observability (see Instrument): one round-trip span per request.
	node string
	tr   *trace.Recorder
}

// Instrument adopts the initiator's counters into reg under "aoe.*" names
// labeled with the node, and makes every request record a round-trip span
// on tr (nil tr: no spans). No-op counters on a nil registry.
func (in *Initiator) Instrument(reg *metrics.Registry, tr *trace.Recorder, node string) {
	in.node, in.tr = node, tr
	l := metrics.L("node", node)
	reg.RegisterCounter("aoe.requests", &in.Requests, l)
	reg.RegisterCounter("aoe.fragments_sent", &in.FragmentsSent, l)
	reg.RegisterCounter("aoe.fragments_recvd", &in.FragmentsRecvd, l)
	reg.RegisterCounter("aoe.retransmits", &in.Retransmits, l)
	reg.RegisterCounter("aoe.failovers", &in.Failovers, l)
	reg.RegisterCounter("aoe.bytes_read", &in.BytesRead, l)
	reg.RegisterCounter("aoe.bytes_written", &in.BytesWritten, l)
}

// pendingReq is one request in flight. It runs as kernel callbacks: the
// request owns its timed wait for progress (wait, on progress), whose
// callback continues the request loop in the slot a process blocked in
// WaitTimeout would have resumed in. A request completes by calling done
// or, for the blocking Read and Write, by resuming the process parked on it.
type pendingReq struct {
	in         *Initiator
	reqID      uint32
	lba, count int64
	frags      int
	got        []bool
	gotCount   int
	parts      []disk.Payload
	write      bool
	src        disk.SectorSource // write data source
	progress   *sim.Signal
	wait       *sim.Waiter
	err        error
	cycled     int   // failovers consumed by this request (≤ len(targets)-1)
	retries    int   // timeout rounds since the last progress
	before     int   // gotCount when the current wait began
	flowID     int64 // trace span ID stamped on outgoing frames (0 untraced)
	sp         *trace.Span

	done   func(disk.Payload, error) // callback completion
	proc   *sim.Proc                 // blocking completion: the caller, until done
	out    disk.Payload              // blocking completion's result
	outErr error
}

// newReq takes a request record from the pool (or allocates one) and sizes
// its per-fragment slices for frags fragments.
func (in *Initiator) newReq(frags int) *pendingReq {
	if n := len(in.reqPool) - 1; n >= 0 {
		pr := in.reqPool[n]
		in.reqPool[n] = nil
		in.reqPool = in.reqPool[:n]
		pr.frags = frags
		pr.gotCount = 0
		pr.cycled = 0
		pr.write, pr.src, pr.err = false, nil, nil
		pr.got = resetSlice(pr.got, frags)
		pr.parts = resetSlice(pr.parts, frags)
		return pr
	}
	pr := &pendingReq{
		in:       in,
		frags:    frags,
		got:      make([]bool, frags),
		parts:    make([]disk.Payload, frags),
		progress: in.k.NewSignal("aoe.req"),
	}
	pr.wait = in.k.NewWaiter(pr.woken)
	return pr
}

// release returns a completed record to the pool. Safe because complete
// deletes the reqID from pending first, so late frames for the old
// request can never touch the recycled record.
func (in *Initiator) release(pr *pendingReq) {
	for i := range pr.parts {
		pr.parts[i] = disk.Payload{} // drop payload sources for the GC
	}
	pr.src, pr.done = nil, nil
	pr.out, pr.outErr = disk.Payload{}, nil
	in.reqPool = append(in.reqPool, pr)
}

// resetSlice returns s resized to n elements, all zero, reusing its backing
// array when capacity allows.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// NewInitiator returns an initiator speaking through n to the target with
// the given MAC and shelf/slot address. Frames are delivered immediately
// (interrupt-style); see SetPolled for the VMM's polled-driver mode.
func NewInitiator(k *sim.Kernel, n Transport, server ethernet.MAC, major uint16, minor uint8) *Initiator {
	in := &Initiator{
		k:          k,
		nic:        n,
		Server:     server,
		Major:      major,
		Minor:      minor,
		targets:    []TargetAddr{{Server: server, Major: major, Minor: minor}},
		perFrame:   SectorsPerFrame(n.MTU()),
		pending:    make(map[uint32]*pendingReq),
		rtt:        2 * sim.Millisecond, // conservative initial estimate
		MaxRetries: 16,
	}
	n.SetOnReceive(in.handleFrame)
	return in
}

// AddTarget appends a secondary target to the failover list. The initiator
// stays on its current target until a request exhausts MaxRetries (or the
// target answers with an error), then rotates; once failed over, later
// requests go straight to the live target.
func (in *Initiator) AddTarget(server ethernet.MAC, major uint16, minor uint8) {
	in.targets = append(in.targets, TargetAddr{Server: server, Major: major, Minor: minor})
}

// Targets returns the configured target list (primary first).
func (in *Initiator) Targets() []TargetAddr { return in.targets }

// failover rotates to the next target if this request has not already tried
// every one, rewriting the address used by subsequent sends. Reports whether
// a switch happened.
func (in *Initiator) failover(pr *pendingReq) bool {
	if len(in.targets) < 2 || pr.cycled >= len(in.targets)-1 {
		return false
	}
	pr.cycled++
	in.cur = (in.cur + 1) % len(in.targets)
	t := in.targets[in.cur]
	in.Server, in.Major, in.Minor = t.Server, t.Major, t.Minor
	in.Failovers.Inc()
	in.tr.Emit(in.node, "aoe", "failover", trace.Str("server", t.Server.String()))
	return true
}

// SetPolled switches the initiator to the VMM's polled receive mode: the
// paper's dedicated-NIC drivers (§4.3) have no interrupt path, so arrived
// frames wait in the rx ring until the polling thread's next tick.
// interval returns the current poll interval (the VMM derives it from the
// RTT estimate, §4.1).
//
// The polling thread ticks on a grid: the tick after one at g comes at
// g + interval(), evaluated once g's tick has drained the ring. Only a
// tick that finds a frame waiting does anything, so only those ticks are
// events. interval() changes only when a frame is handled, so the grid
// stays fixed from one such tick to the next, and a frame that lands on
// an idle ring arms the tick at the first grid point strictly after now.
// Ticks are ranked events (sim.Kernel.AtRanked), one rank per initiator:
// a tick runs ahead of every ordinary event at its instant, so a frame
// landing on a grid point has missed that point's tick. Frames already
// queued on the transport, which a closed initiator on the same NIC left
// behind, are taken over: the first grid point is one interval away.
func (in *Initiator) SetPolled(interval func() sim.Duration) {
	in.nic.SetOnReceive(nil) // frames queue on the NIC
	in.interval = interval
	in.rank = in.k.NewRank()
	in.tickFn = in.tick
	in.grid, in.step = in.k.Now(), in.interval()
	in.nic.SetOnArrival(in.arrived)
	if in.nic.RxPending() > 0 {
		in.arm()
	}
}

// arrived is the transport's arrival hook in polled mode: a frame landed
// on the rx ring.
func (in *Initiator) arrived() {
	if in.k.Ranked() {
		// A tick at this instant with a higher rank than the running
		// event would have seen the frame; arm could only pick the next
		// grid point.
		panic("aoe: frame landed on a polled rx ring during a ranked event")
	}
	if !in.armed {
		in.arm()
	}
}

// arm schedules the tick at the first grid point strictly after now.
func (in *Initiator) arm() {
	n := in.k.Now().Sub(in.grid)/in.step + 1
	in.armed = true
	in.k.AtRanked(in.grid.Add(n*in.step), in.rank, in.tickFn)
}

// tick is one polling-thread tick: it drains the rx ring and moves the
// grid to this instant.
func (in *Initiator) tick() {
	in.armed = false
	if in.closed {
		return
	}
	for {
		f, ok := in.nic.TryRecv()
		if !ok {
			break
		}
		in.handleFrame(f)
	}
	in.grid, in.step = in.k.Now(), in.interval()
}

// Close shuts the initiator down: the polling loop (if any) stops, and
// late frames are left queued on the transport. The de-virtualizing VMM
// calls this when it disappears.
func (in *Initiator) Close() {
	in.closed = true
	in.nic.SetOnReceive(nil)
	in.nic.SetOnArrival(nil)
}

// RTT reports the smoothed round-trip time estimate; the VMM uses it to
// pick device polling intervals (paper §4.1).
func (in *Initiator) RTT() sim.Duration { return in.rtt }

// SectorsPerFragment reports the per-fragment payload capacity.
func (in *Initiator) SectorsPerFragment() int64 { return in.perFrame }

func (in *Initiator) handleFrame(f *ethernet.Frame) {
	// The initiator is the final consumer of response frames: whatever it
	// needs (the payload descriptor) is copied out below, so the frame's
	// last reference drops on every return path.
	defer f.Release()
	msg, ok := f.Payload.(*Message)
	if !ok || f.EtherType != EtherType || !msg.IsResponse() {
		return
	}
	reqID, frag := SplitTag(msg.Tag)
	pr, ok := in.pending[reqID]
	if !ok || frag >= pr.frags || pr.got[frag] {
		return // duplicate or stale response
	}
	if msg.Flags&FlagError != 0 {
		pr.err = fmt.Errorf("aoe: target error %#x for request %d", msg.Error, reqID)
		pr.progress.Broadcast()
		return
	}
	pr.got[frag] = true
	pr.gotCount++
	in.FragmentsRecvd.Inc()
	if !pr.write {
		pr.parts[frag] = msg.Payload
	}
	// The echoed stamp identifies which transmission the target served,
	// so the sample is exact even for retransmitted fragments. That
	// matters under fleet-scale congestion: a reply to the original send
	// timed against a later retransmit would read far below the true
	// round trip, and the low estimate keeps the RTO under the server's
	// queue delay — every request retransmits, the queue grows, and the
	// collapse feeds itself. A truthful sample lets the estimate track
	// the queue and the RTO back off to match.
	if msg.Stamp > 0 {
		sample := in.k.Now().Sub(sim.Time(msg.Stamp))
		in.rtt = (in.rtt*7 + sample) / 8
	}
	pr.progress.Broadcast()
}

func (in *Initiator) fragRange(pr *pendingReq, frag int) (lba, count int64) {
	lba = pr.lba + int64(frag)*in.perFrame
	count = in.perFrame
	if rem := pr.lba + pr.count - lba; rem < count {
		count = rem
	}
	return lba, count
}

func (in *Initiator) sendFragment(pr *pendingReq, reqID uint32, frag int) {
	lba, count := in.fragRange(pr, frag)
	f, msg := in.framePool.Get()
	msg.Header = Header{
		Major:     in.Major,
		Minor:     in.Minor,
		Tag:       MakeTag(reqID, frag),
		Count:     uint16(count),
		LBA:       uint64(lba),
		FragTotal: uint16(pr.frags),
	}
	if pr.write {
		msg.AFlags = AFlagWrite | AFlagLBA48
		msg.Cmd = CmdWriteDMAExt
		msg.Payload = disk.Payload{LBA: lba, Count: count, Source: pr.src}
	} else {
		msg.AFlags = AFlagLBA48
		msg.Cmd = CmdReadDMAExt
	}
	msg.Stamp = int64(in.k.Now())
	in.FragmentsSent.Inc()
	f.Dst = in.Server
	f.EtherType = EtherType
	f.Size = ethernet.HeaderSize + msg.WireSize()
	f.FlowID = pr.flowID // always set: pooled frames carry stale IDs
	in.nic.Send(f)
}

// start issues a request: it registers the request, opens its round-trip
// span under cause, sends every fragment and enters the request loop.
func (in *Initiator) start(pr *pendingReq, cause *trace.Span) {
	pr.reqID = in.nextReq
	in.nextReq = (in.nextReq + 1) % (1 << (32 - tagFragBits))
	in.pending[pr.reqID] = pr
	in.Requests.Inc()
	name := "read"
	if pr.write {
		name = "write"
	}
	pr.sp = in.tr.BeginChild(cause, in.node, "aoe", name,
		trace.Int("lba", pr.lba), trace.Int("count", pr.count), trace.Int("frags", int64(pr.frags)))
	pr.flowID = pr.sp.SpanID() // 0 untraced
	for f := 0; f < pr.frags; f++ {
		in.sendFragment(pr, pr.reqID, f)
	}
	pr.retries = 0
	in.advance(pr)
}

// advance runs the request loop until the request completes or must wait
// for progress.
func (in *Initiator) advance(pr *pendingReq) {
	for pr.gotCount < pr.frags {
		if in.closed {
			in.complete(pr, fmt.Errorf("aoe: initiator closed with request %d incomplete (%d/%d fragments)",
				pr.reqID, pr.gotCount, pr.frags))
			return
		}
		if pr.err != nil {
			// The target answered with an error status. With a secondary
			// configured, rotate to it and retry; otherwise fail the request.
			if !in.failover(pr) {
				in.complete(pr, pr.err)
				return
			}
			pr.err = nil
			pr.retries = 0
			in.retransmitMissing(pr, pr.reqID)
			continue
		}
		// Wait for progress; time out after 4×RTT of silence, doubling
		// per retry round (exponential backoff keeps a loaded server
		// from melting down under retransmit storms).
		rto := 4 * in.rtt << uint(pr.retries)
		if min := 2 * sim.Millisecond; rto < min {
			rto = min
		}
		if max := 2 * sim.Second; rto > max {
			rto = max
		}
		pr.before = pr.gotCount
		pr.wait.WaitTimeout(pr.progress, rto)
		return
	}
	in.complete(pr, nil)
}

// woken continues the request loop after a wait for progress: a fragment
// or an error arrived (fired), or the RTO elapsed.
func (pr *pendingReq) woken(fired bool) {
	in := pr.in
	if fired {
		if pr.gotCount > pr.before {
			// Forward progress: the path is live again, so stop
			// escalating — otherwise one early loss burst pins every
			// later timeout in this request at the cap.
			pr.retries = 0
		}
		in.advance(pr)
		return
	}
	pr.retries++
	if pr.retries > in.MaxRetries {
		// The current target is unreachable. Fail over if a fresh
		// target remains; otherwise surface the timeout.
		if !in.failover(pr) {
			in.complete(pr, fmt.Errorf("aoe: request %d timed out after %d retries (%d/%d fragments)",
				pr.reqID, in.MaxRetries, pr.gotCount, pr.frags))
			return
		}
		pr.retries = 0
	}
	in.retransmitMissing(pr, pr.reqID)
	in.advance(pr)
}

// complete ends a request: it closes the span, accounts the bytes and
// hands the result to the blocked process or the done callback.
func (in *Initiator) complete(pr *pendingReq, err error) {
	delete(in.pending, pr.reqID)
	pr.sp.End()
	pr.sp = nil
	var out disk.Payload
	if err == nil {
		if pr.write {
			in.BytesWritten.Add(pr.count * disk.SectorSize)
		} else {
			in.BytesRead.Add(pr.count * disk.SectorSize)
			out = in.assemble(pr)
		}
	}
	if p := pr.proc; p != nil {
		pr.proc, pr.out, pr.outErr = nil, out, err
		p.Resume()
		return
	}
	done := pr.done
	in.release(pr)
	done(out, err)
}

// await runs a request for the blocking Read and Write as a root round
// trip: the calling process suspends until the request's final step
// resumes it.
func (in *Initiator) await(p *sim.Proc, pr *pendingReq) (disk.Payload, error) {
	pr.proc = p
	in.start(pr, nil)
	p.Suspend()
	out, err := pr.out, pr.outErr
	in.release(pr)
	return out, err
}

// retransmitMissing resends every fragment not yet acknowledged.
func (in *Initiator) retransmitMissing(pr *pendingReq, reqID uint32) {
	for f := 0; f < pr.frags; f++ {
		if !pr.got[f] {
			in.Retransmits.Inc()
			in.sendFragment(pr, reqID, f)
		}
	}
}

// Read fetches count sectors at lba from the target, blocking the process.
// The round trip's span is a root; use ReadAsync to parent it on a cause.
func (in *Initiator) Read(p *sim.Proc, lba, count int64) (disk.Payload, error) {
	if count <= 0 {
		return disk.Payload{}, fmt.Errorf("aoe: non-positive read count %d", count)
	}
	pr := in.newReq(Fragments(count, in.perFrame))
	pr.lba, pr.count = lba, count
	return in.await(p, pr)
}

// ReadAsync is the callback form of Read: it fetches count sectors at lba
// and calls done with the result from the event that completes the
// request, or at once for a request that fails before it is sent. The
// round trip's span parents on cause.
func (in *Initiator) ReadAsync(cause *trace.Span, lba, count int64, done func(disk.Payload, error)) {
	if count <= 0 {
		done(disk.Payload{}, fmt.Errorf("aoe: non-positive read count %d", count))
		return
	}
	pr := in.newReq(Fragments(count, in.perFrame))
	pr.lba, pr.count, pr.done = lba, count, done
	in.start(pr, cause)
}

// assemble merges fragment payloads into one. Fragments sharing one source
// stay symbolic; mixed sources are materialized.
func (in *Initiator) assemble(pr *pendingReq) disk.Payload {
	uniform := true
	for _, part := range pr.parts {
		if part.Source != pr.parts[0].Source {
			uniform = false
			break
		}
	}
	if uniform {
		return disk.Payload{LBA: pr.lba, Count: pr.count, Source: pr.parts[0].Source}
	}
	buf := make([]byte, 0, pr.count*disk.SectorSize)
	for _, part := range pr.parts {
		buf = part.AppendTo(buf)
	}
	return disk.Payload{LBA: pr.lba, Count: pr.count, Source: disk.OwnedBuffer(pr.lba, buf, "aoe-read")}
}

// Write stores the payload's sectors on the target, blocking the process.
// The round trip's span is a root.
func (in *Initiator) Write(p *sim.Proc, payload disk.Payload) error {
	if payload.Count <= 0 {
		return fmt.Errorf("aoe: non-positive write count %d", payload.Count)
	}
	pr := in.newReq(Fragments(payload.Count, in.perFrame))
	pr.lba, pr.count = payload.LBA, payload.Count
	pr.write, pr.src = true, payload.Source
	_, err := in.await(p, pr)
	return err
}
