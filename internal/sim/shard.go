package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
)

// This file is the conservative parallel executor: a ShardSet partitions a
// scenario into domains (one kernel each) that execute windows of virtual
// time in parallel and exchange timestamped cross-domain events at window
// barriers. The serial schedule is the one-domain partition (NewSerialSet),
// on which every event is a barrier.
//
// Determinism contract (DESIGN.md §13). The partition and the window grid
// are properties of the *model* (fixed at build time), not of the executor:
// a ShardSet built the same way always runs the same domains over the same
// window sequence and merges cross-domain posts in the same canonical
// (time, source domain, source sequence) order, regardless of how many OS
// workers execute the windows. Worker count therefore cannot influence any
// simulation outcome — same seed ⇒ byte-identical traces, metrics, and
// stdout at any -shards value — because within a window domains share no
// mutable state (everything crossing a boundary goes through Post).
//
// Conservatism. A post sent at local time t is delivered no earlier than
// the end of the window that sent it. When the window width W is at most
// the minimum cross-domain latency L (link propagation + switch latency),
// this is exactly the Chandy-Misra-Bryant lookahead argument: the send
// completes in [T, T+W) and the natural arrival t+L ≥ T+L ≥ T+W, so the
// clamp never moves an arrival and the parallel run is event-for-event the
// sequential schedule. With W > L, boundary deliveries quantize up to the
// next window edge — a documented modeling choice (the grid is part of the
// scenario) that buys W/L fewer barriers; the quantization is identical at
// every shard count, so determinism is unaffected.

// XHandler consumes a cross-domain payload on the destination kernel, the
// typed (allocation-free) alternative to posting a closure.
type XHandler interface{ XDeliver(payload any) }

// xpost is one cross-domain event awaiting delivery at a barrier.
type xpost struct {
	at      Time
	src     int32
	seq     uint64
	dst     *Kernel
	h       XHandler
	payload any
	fn      func()
}

// xevent is a pooled delivery record: the scheduled kernel event that fires
// one delivered post on the destination kernel. Pooling keeps the per-post
// steady state at zero allocations, mirroring the kernel's event records.
type xevent struct {
	h       XHandler
	payload any
	fn      func()
	fire    func()
}

// shardDomain is the per-kernel view of its ShardSet membership.
type shardDomain struct {
	set    *ShardSet
	id     int32
	outbox []xpost
	seq    uint64

	// failed and failure record a panic or runtime.Goexit that escaped
	// this domain's window in a parallel window, for the coordinator to
	// re-raise after the barrier. failure is the panic value, nil for
	// Goexit.
	failed  bool
	failure any
}

// ShardSet runs a fixed partition of kernels ("domains") under the
// barrier-window protocol. Build every domain with NewDomain before the
// first Run; the partition must not change afterwards.
type ShardSet struct {
	seed       int64
	window     Duration // barrier width W; 0 marks a serial set
	reqWorkers int
	domains    []*Kernel

	frontier  Time // end of the last executed window
	windowEnd Time // end of the window currently executing

	scratch []xpost   // barrier merge buffer, reused across windows
	active  []*Kernel // domains live in the window currently executing

	// Worker coordination. The epoch counter releases workers into a
	// parallel window; nextDom hands out domains (work stealing); done
	// counts completed domains. A worker may lag arbitrarily — it can
	// attempt to join a window whose barrier has already closed — so
	// access to the window state (active, windowEnd, the counters) is
	// gated: a worker must win tryEnter before touching anything, and
	// the coordinator sets the closed bit and drains all entrants out
	// before it rewrites the state for the next window. The gate reuses
	// the same fields every window, keeping the steady state allocation
	// free. These atomics also give the race detector its
	// happens-before edges.
	epoch   atomic.Uint64
	nextDom atomic.Int64
	done    atomic.Int64
	gate    atomic.Uint64 // gateClosed bit | count of workers entered
	exits   atomic.Uint64 // workers that entered and left the window
}

// gateClosed marks the window gate shut: tryEnter fails, so the
// coordinator may rewrite window state once every prior entrant exited.
const gateClosed = uint64(1) << 63

// tryEnter registers the caller as a worker inside the current window.
// It fails when the gate is closed (the window's barrier already
// completed, or the next window is still being set up).
func (s *ShardSet) tryEnter() bool {
	for {
		v := s.gate.Load()
		if v&gateClosed != 0 {
			return false
		}
		if s.gate.CompareAndSwap(v, v+1) {
			return true
		}
	}
}

// closeGate shuts the window gate and returns how many workers entered.
func (s *ShardSet) closeGate() uint64 {
	for {
		v := s.gate.Load()
		if s.gate.CompareAndSwap(v, v|gateClosed) {
			return v &^ gateClosed
		}
	}
}

// work executes domains from the shared hand-out counter until none
// remain. Which worker runs which domain is immaterial: domains are
// independent within a window and the barrier merge is order-canonical.
func (s *ShardSet) work() {
	for {
		i := s.nextDom.Add(1) - 1
		if i >= int64(len(s.active)) {
			return
		}
		s.runDomain(s.active[i])
	}
}

// runDomain runs one domain's window in a parallel window. A panic or
// runtime.Goexit out of the window is recorded on the domain rather than
// left to end the worker: the domain still counts as done, so the barrier
// completes, and the coordinator re-raises the failure afterwards. A
// Goexit still ends the worker goroutine it ran on.
func (s *ShardSet) runDomain(k *Kernel) {
	returned := false
	defer func() {
		if !returned {
			k.dom.failed, k.dom.failure = true, recover()
		}
		s.done.Add(1)
	}()
	k.runWindow(s.windowEnd)
	returned = true
}

// helpWindow is a helper worker's share of a window it entered. The exit
// is counted even when a domain's Goexit ends the worker.
func (s *ShardSet) helpWindow() {
	defer s.exits.Add(1)
	s.work()
}

// awaitBarrier waits until every active domain ran its window, then shuts
// the gate and waits out every worker that made it inside, so none can
// touch window state after the barrier.
func (s *ShardSet) awaitBarrier() {
	for s.done.Load() < int64(len(s.active)) {
		runtime.Gosched()
	}
	for entered := s.closeGate(); s.exits.Load() < entered; {
		runtime.Gosched()
	}
}

// raiseFailure re-raises, on the coordinator, the failure of the first
// active domain (in domain order) whose window panicked or called
// runtime.Goexit, so the caller of Run sees what a serial run would show.
func (s *ShardSet) raiseFailure() {
	for _, k := range s.active {
		if d := k.dom; d.failed {
			if d.failure == nil {
				runtime.Goexit()
			}
			panic(d.failure)
		}
	}
}

// NewShardSet returns an empty shard set. workers is the requested
// parallelism (the -shards value); the executor clamps the live worker
// count to GOMAXPROCS at Run time, which is invisible to results. window
// is the barrier width W; see the package comment for how W relates to
// cross-domain latency.
func NewShardSet(seed int64, workers int, window Duration) *ShardSet {
	if workers < 1 {
		workers = 1
	}
	if window <= 0 {
		panic("sim: shard window must be positive")
	}
	s := &ShardSet{seed: seed, reqWorkers: workers, window: window}
	s.gate.Store(gateClosed) // no window is executing yet
	return s
}

// NewSerialSet returns the one-domain partition: a set whose only domain
// is seeded with seed itself, so it draws exactly as New(seed) does. With
// one domain nothing crosses a domain boundary, so RunUntil fires events
// one at a time and checks stop after each (every event is a barrier).
// A serial set has no window grid and takes no further domains.
func NewSerialSet(seed int64) *ShardSet {
	s := &ShardSet{seed: seed, reqWorkers: 1}
	k := New(seed)
	k.dom = &shardDomain{set: s}
	s.domains = []*Kernel{k}
	return s
}

// NewDomain adds a kernel to the set. Domains are identified by creation
// order, which is part of the model: cross-domain posts merge by (time,
// domain index, sequence), so builders must create domains in a fixed
// order. Each domain's RNG seed derives from the set seed and the domain
// index only.
func (s *ShardSet) NewDomain(name string) *Kernel {
	if s.window == 0 {
		panic("sim: a serial set has exactly one domain")
	}
	idx := int32(len(s.domains))
	k := New(domainSeed(s.seed, idx))
	k.dom = &shardDomain{set: s, id: idx}
	s.domains = append(s.domains, k)
	_ = name
	return k
}

// domainSeed derives a per-domain RNG seed (splitmix64 finalizer over the
// set seed and domain index) so domains draw from independent streams that
// depend only on their fixed index.
func domainSeed(seed int64, idx int32) int64 {
	z := uint64(seed) + (uint64(idx)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Domains returns the set's kernels in domain order.
func (s *ShardSet) Domains() []*Kernel { return s.domains }

// Now reports the set frontier: every domain has executed all its events
// before this instant.
func (s *ShardSet) Now() Time { return s.frontier }

// Pending reports the total scheduled events across all domains.
func (s *ShardSet) Pending() int {
	n := 0
	for _, k := range s.domains {
		n += k.Pending()
	}
	return n
}

// Post schedules fn on the dst kernel at instant at, clamped to the end of
// the executing window (the conservative delivery rule). Within one source
// domain posts deliver in (time, post order); across domains they merge in
// (time, domain index, post order). Posting to the local kernel is exact
// (no clamp, no barrier), and a kernel outside any ShardSet may only post
// to itself.
func (k *Kernel) Post(dst *Kernel, at Time, fn func()) {
	k.post(dst, at, nil, nil, fn)
}

// PostDeliver schedules h.XDeliver(payload) on dst at instant at under the
// same delivery rule as Post, without allocating a closure per post.
func (k *Kernel) PostDeliver(dst *Kernel, at Time, h XHandler, payload any) {
	k.post(dst, at, h, payload, nil)
}

func (k *Kernel) post(dst *Kernel, at Time, h XHandler, payload any, fn func()) {
	if dst == k {
		// Local delivery is exact: no window clamp, no barrier.
		if at < k.now {
			at = k.now
		}
		k.deliverPost(xpost{at: at, h: h, payload: payload, fn: fn})
		return
	}
	d := k.dom
	if d == nil || dst.dom == nil || dst.dom.set != d.set {
		panic("sim: cross-domain post between kernels not in one ShardSet")
	}
	s := d.set
	if at < s.windowEnd {
		at = s.windowEnd
	}
	d.seq++
	d.outbox = append(d.outbox, xpost{at: at, src: d.id, seq: d.seq, dst: dst, h: h, payload: payload, fn: fn})
}

// runWindow fires every local event strictly before end. Unlike RunUntil it
// never warps the clock: a domain's Now stays at its last executed event,
// so timestamps are execution artifacts, not barrier artifacts.
func (k *Kernel) runWindow(end Time) {
	k.stopped = false
	for !k.stopped {
		if len(k.heap) == 0 || k.heap[0].when >= end {
			return
		}
		k.step()
	}
}

// nextWhen reports the earliest scheduled event, if any.
func (k *Kernel) nextWhen() (Time, bool) {
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.heap[0].when, true
}

// deliverPost schedules one post (merged at a barrier, or local) as a
// kernel event using a pooled delivery record.
func (k *Kernel) deliverPost(x xpost) {
	var rec *xevent
	if n := len(k.xfree); n > 0 {
		rec = k.xfree[n-1]
		k.xfree = k.xfree[:n-1]
	} else {
		rec = &xevent{}
		rec.fire = func() {
			h, payload, fn := rec.h, rec.payload, rec.fn
			rec.h, rec.payload, rec.fn = nil, nil, nil
			k.xfree = append(k.xfree, rec)
			if h != nil {
				h.XDeliver(payload)
				return
			}
			fn()
		}
	}
	rec.h, rec.payload, rec.fn = x.h, x.payload, x.fn
	k.At(x.at, rec.fire)
}

// Run executes barrier windows until stop reports true (checked at every
// barrier) or the whole set is quiescent. stop may be nil.
func (s *ShardSet) Run(stop func() bool) {
	s.RunUntil(Time(1)<<62, stop)
}

// RunUntil executes barrier windows until the frontier reaches horizon,
// stop reports true, or the set is quiescent. A serial set (NewSerialSet)
// checks stop after every event. A panic or runtime.Goexit
// in a domain's window reaches the caller's goroutine, whichever worker
// ran that window; the set is not usable afterwards.
func (s *ShardSet) RunUntil(horizon Time, stop func() bool) {
	if s.window == 0 {
		s.runSerial(horizon, stop)
		return
	}
	workers := s.reqWorkers
	if max := runtime.GOMAXPROCS(0); workers > max {
		// Fewer live workers than requested shards: pure execution policy,
		// invisible to simulation results (see determinism contract).
		workers = max
	}
	if workers > len(s.domains) {
		workers = len(s.domains)
	}

	var quit atomic.Bool
	inWindow := false // a parallel window is open
	if workers > 1 {
		// The helper workers exist only inside this call. They spin through
		// barrier phases (with Gosched so a loaded scheduler still makes
		// progress) because windows are short and dense; parking them on
		// channels would cost a wake per worker per window.
		for w := 1; w < workers; w++ {
			go func() { //bmcast:allow simdrift shard executor workers: domains are handed out via atomics and each kernel window runs on exactly one worker
				last := s.epoch.Load()
				for {
					e := s.epoch.Load()
					if quit.Load() {
						return
					}
					if e == last {
						runtime.Gosched()
						continue
					}
					last = e
					// A failed enter means the window already closed
					// without us (it was drained by the others) or is
					// mid-setup; the next epoch bump will re-release us.
					if s.tryEnter() {
						s.helpWindow()
					}
				}
			}()
		}
		defer quit.Store(true)
		defer func() {
			if inWindow {
				// A domain the coordinator ran called runtime.Goexit. The
				// helpers may have missed this window, so the coordinator
				// finishes it before the helpers are released.
				s.work()
				s.awaitBarrier()
			}
		}()
	}

	for stop == nil || !stop() {
		// Find the next populated window. Every event and undelivered post
		// is at or after the frontier, so the grid floor of the earliest
		// event is the next window that will fire anything.
		t := Time(0)
		ok := false
		for _, k := range s.domains {
			if w, kok := k.nextWhen(); kok && (!ok || w < t) {
				t, ok = w, true
			}
		}
		if !ok || t >= horizon {
			s.frontier = horizon
			if !ok {
				s.frontier = s.windowEnd
			}
			return
		}
		T := Time(int64(t) - int64(t)%int64(s.window))
		end := T.Add(s.window)
		s.windowEnd = end

		s.active = s.active[:0]
		for _, k := range s.domains {
			if w, kok := k.nextWhen(); kok && w < end {
				s.active = append(s.active, k)
			}
		}
		if workers > 1 && len(s.active) > 1 {
			// The gate is closed and drained here (initial state, or the
			// previous parallel barrier), so no worker can observe the
			// resets or the window state rewritten above.
			s.nextDom.Store(0)
			s.done.Store(0)
			s.exits.Store(0)
			s.gate.Store(0) // open the window
			s.epoch.Add(1)  // release workers into it
			inWindow = true
			s.work() // the coordinator is a worker too
			s.awaitBarrier()
			inWindow = false
			s.raiseFailure()
		} else {
			for _, k := range s.active {
				k.runWindow(end)
			}
		}
		s.frontier = end
		s.mergePosts()
	}
}

// runSerial is RunUntil for a serial set: it fires events before
// horizon one at a time until stop reports true or none remain. Like
// Kernel.Run, and unlike Kernel.RunUntil, it never warps the clock.
func (s *ShardSet) runSerial(horizon Time, stop func() bool) {
	k := s.domains[0]
	for (stop == nil || !stop()) && len(k.heap) > 0 {
		if k.heap[0].when >= horizon {
			s.frontier = horizon
			return
		}
		k.step()
	}
	s.frontier = k.now
}

// mergePosts drains every domain's outbox and schedules the posts on their
// destinations in canonical (time, source domain, sequence) order, so the
// destination heap order — and therefore the whole next window — is
// independent of execution interleaving. The key is unique per post, so
// the unstable sort still yields exactly one order.
func (s *ShardSet) mergePosts() {
	s.scratch = s.scratch[:0]
	for _, k := range s.domains {
		d := k.dom
		if len(d.outbox) > 0 {
			s.scratch = append(s.scratch, d.outbox...)
			for i := range d.outbox {
				d.outbox[i] = xpost{}
			}
			d.outbox = d.outbox[:0]
		}
	}
	if len(s.scratch) == 0 {
		return
	}
	slices.SortFunc(s.scratch, func(a, b xpost) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
	})
	for _, x := range s.scratch {
		if x.at < x.dst.now {
			panic(fmt.Sprintf("sim: cross-domain post at %v behind destination clock %v", x.at, x.dst.now))
		}
		x.dst.deliverPost(x)
	}
}
