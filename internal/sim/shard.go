package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// This file is the conservative windowed executor: a ShardSet partitions a
// scenario into domains (one kernel each) that execute windows of virtual
// time and exchange timestamped cross-domain events at window barriers.
// Each window runs its domains one after another, in domain order, on the
// caller's goroutine. The serial schedule is the one-domain partition
// (NewSerialSet), on which every event is a barrier.
//
// Determinism contract (DESIGN.md §13). The partition and the window grid
// are properties of the *model* (fixed at build time): a ShardSet built the
// same way always runs the same domains over the same window sequence and
// merges cross-domain posts in the same canonical (time, source domain,
// source sequence) order. Within a window domains share no mutable state
// (everything crossing a boundary goes through Post), so no domain can
// observe another's progress inside a window, and same seed ⇒
// byte-identical traces, metrics and stdout.
//
// Conservatism. A post sent at local time t is delivered no earlier than
// the end of the window that sent it. When the window width W is at most
// the minimum cross-domain latency L (link propagation + switch latency),
// this is exactly the Chandy-Misra-Bryant lookahead argument: the send
// completes in [T, T+W) and the natural arrival t+L ≥ T+L ≥ T+W, so the
// clamp never moves an arrival and the windowed run is event-for-event the
// sequential schedule. With W > L, boundary deliveries quantize up to the
// next window edge — a documented modeling choice (the grid is part of the
// scenario) that buys W/L fewer barriers.
//
// Windows run on one goroutine: on the per-node fleet partition the hub
// domain bounds a parallel speedup at about 2×, and with real barriers
// parallel windows ran slower than this loop on every host measured
// (DESIGN.md §13).

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
}

// ShardSet runs a fixed partition of kernels ("domains") under the
// barrier-window protocol. Build every domain with NewDomain before the
// first Run; the partition must not change afterwards.
type ShardSet struct {
	seed    int64
	window  Duration // barrier width W; 0 marks a serial set
	domains []*Kernel

	frontier  Time // end of the last executed window
	windowEnd Time // end of the window currently executing

	next    []Time  // each domain's earliest event time, idle when none (see RunUntil)
	dirty   []int32 // domains whose outbox holds posts, in first-post order
	scratch []xpost // barrier merge buffer, reused across windows
}

// idle is the next-time entry of a domain with no events.
const idle = Time(1<<63 - 1)

// NewShardSet returns an empty shard set. window is the barrier width W;
// see the package comment for how W relates to cross-domain latency.
func NewShardSet(seed int64, window Duration) *ShardSet {
	if window <= 0 {
		panic("sim: shard window must be positive")
	}
	return &ShardSet{seed: seed, window: window}
}

// NewSerialSet returns the one-domain partition: a set whose only domain
// is seeded with seed itself, so it draws exactly as New(seed) does. With
// one domain nothing crosses a domain boundary, so RunUntil fires events
// one at a time and checks stop after each (every event is a barrier).
// A serial set has no window grid and takes no further domains.
func NewSerialSet(seed int64) *ShardSet {
	s := &ShardSet{seed: seed}
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
	if len(d.outbox) == 0 {
		s.dirty = append(s.dirty, d.id)
	}
	d.seq++
	d.outbox = append(d.outbox, xpost{at: at, src: d.id, seq: d.seq, dst: dst, h: h, payload: payload, fn: fn})
}

// runWindow fires every local event strictly before end, or up to a Stop,
// and returns the time of the earliest event left (idle when none). Unlike
// RunUntil it never warps the clock: a domain's Now stays at its last
// executed event, so timestamps are execution artifacts, not barrier
// artifacts.
func (k *Kernel) runWindow(end Time) Time {
	k.stopped = false
	for e := k.min(); e != nil; e = k.min() {
		if e.when >= end || k.stopped {
			return e.when
		}
		k.step()
	}
	return idle
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
// checks stop after every event. Each window runs its domains one after
// another in domain order on the caller's goroutine, so a panic or
// runtime.Goexit in a domain unwinds through RunUntil as it would through
// Kernel.Run; the set is not usable afterwards.
func (s *ShardSet) RunUntil(horizon Time, stop func() bool) {
	if s.window == 0 {
		s.runSerial(horizon, stop)
		return
	}
	// Events scheduled between runs are seen here; from then on a domain's
	// entry changes only when it runs a window or a merged post lands on it.
	s.next = s.next[:0]
	for _, k := range s.domains {
		t := idle
		if e := k.min(); e != nil {
			t = e.when
		}
		s.next = append(s.next, t)
	}
	for stop == nil || !stop() {
		// Find the next populated window. Every event and undelivered post
		// is at or after the frontier, so the grid floor of the earliest
		// event is the next window that will fire anything.
		t := idle
		for _, w := range s.next {
			t = min(t, w)
		}
		if t == idle || t >= horizon {
			s.frontier = horizon
			if t == idle {
				s.frontier = s.windowEnd
			}
			return
		}
		T := Time(int64(t) - int64(t)%int64(s.window))
		end := T.Add(s.window)
		s.windowEnd = end
		// Posts land only at the barrier, so no domain's window depends on
		// the domains run before it, and a domain with nothing before end
		// is not visited.
		for i, w := range s.next {
			if w < end {
				s.next[i] = s.domains[i].runWindow(end)
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
	for (stop == nil || !stop()) && k.min() != nil {
		if k.heap[0].when >= horizon {
			s.frontier = horizon
			return
		}
		k.step()
	}
	s.frontier = k.now
}

// mergePosts drains every outbox written to since the last barrier and
// schedules the posts on their destinations in canonical (time, source
// domain, sequence) order, so the destination heap order — and therefore
// the whole next window — is independent of execution interleaving. The
// key is unique per post, so the unstable sort still yields exactly one
// order.
func (s *ShardSet) mergePosts() {
	if len(s.dirty) == 0 {
		return
	}
	s.scratch = s.scratch[:0]
	for _, id := range s.dirty {
		d := s.domains[id].dom
		s.scratch = append(s.scratch, d.outbox...)
		clear(d.outbox)
		d.outbox = d.outbox[:0]
	}
	s.dirty = s.dirty[:0]
	slices.SortFunc(s.scratch, func(a, b xpost) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
	})
	for _, x := range s.scratch {
		if x.at < x.dst.now {
			panic(fmt.Sprintf("sim: cross-domain post at %v behind destination clock %v", x.at, x.dst.now))
		}
		x.dst.deliverPost(x)
		id := x.dst.dom.id
		s.next[id] = min(s.next[id], x.at)
	}
}
