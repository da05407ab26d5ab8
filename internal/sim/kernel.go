package sim

import (
	"fmt"
	"math/rand"
)

// event is the kernel's record for one scheduled callback. Records are
// pooled: once an event fires, its record returns to the kernel's free
// list and is reused by a later At/After, so steady-state scheduling does
// not allocate. Callers never hold *event directly — At and After return a
// Handle, which stays valid (as a guaranteed no-op) after the record is
// recycled.
type event struct {
	when  Time
	seq   uint64 // schedule order or rank; 0 once fired or canceled (invalidates handles)
	fn    func()
	index int32 // position in the kernel's heap, -1 when not queued
}

// Handle identifies a scheduled event so it can be canceled. The zero
// Handle is inert. A Handle held past its event's firing is harmless:
// the record's sequence number changes when the kernel recycles it, so a
// stale Cancel or When is a no-op rather than an aliased mutation of
// whatever event reuses the record.
type Handle struct {
	k   *Kernel
	e   *event
	seq uint64
}

// live reports whether the handle still refers to the event it was issued
// for: scheduled, and neither fired nor canceled.
func (h Handle) live() bool { return h.e != nil && h.e.seq == h.seq }

// When reports the instant the event is scheduled to fire, or zero once
// the event has fired or been canceled.
func (h Handle) When() Time {
	if !h.live() {
		return 0
	}
	return h.e.when
}

// Cancel prevents the event from firing: it removes the event from the
// heap and recycles its record at once, so no tombstone is left behind.
// The record may serve another event straight away; the handle, whose
// sequence number no longer matches, stays inert. Canceling a fired or
// already-canceled event is a no-op.
func (h Handle) Cancel() {
	if !h.live() {
		return
	}
	k, e := h.k, h.e
	k.remove(e)
	e.fn, e.seq = nil, 0
	k.free = append(k.free, e)
}

// Kernel is a discrete-event simulation engine. It is not safe for
// concurrent use; its processes run on whichever goroutine is driving it.
type Kernel struct {
	now      Time
	heap     []*event  // binary min-heap ordered by (when, seq)
	hole     bool      // the firing event vacated heap[0] (see min)
	free     []*event  // recycled fired and canceled records, reused by At
	xfree    []*xevent // recycled post delivery records (shard.go)
	seq      uint64    // last ordinary sequence number drawn; starts at seqBase
	ranks    Rank      // ranks handed out by NewRank
	ranked   bool      // the firing event was scheduled with AtRanked
	fired    int64     // events fired (Fired)
	queued   int       // stream entries queued behind their stream's head (stream.go)
	rng      *rand.Rand
	procs    int // live processes (running or parked)
	stopped  bool
	procHook func(t Time, ev ProcEvent, name string)

	// dom is non-nil when this kernel is one domain of a ShardSet (see
	// shard.go); it carries the outbox for cross-domain posts.
	dom *shardDomain
}

// ProcEvent classifies process lifecycle notifications for SetProcHook.
type ProcEvent uint8

// Process lifecycle events.
const (
	ProcSpawn ProcEvent = iota // process created
	ProcPark                   // process blocked, control returned to kernel
	ProcWake                   // process resumed
	ProcExit                   // process function returned
)

func (e ProcEvent) String() string {
	switch e {
	case ProcSpawn:
		return "proc-spawn"
	case ProcPark:
		return "proc-park"
	case ProcWake:
		return "proc-wake"
	default:
		return "proc-exit"
	}
}

// SetProcHook installs an observer for process lifecycle events (spawn,
// park, wake, exit). A nil hook — the default — disables observation;
// the only cost left on the scheduling path is one pointer check.
func (k *Kernel) SetProcHook(fn func(t Time, ev ProcEvent, name string)) { k.procHook = fn }

func (k *Kernel) notifyProc(ev ProcEvent, name string) {
	if k.procHook != nil {
		k.procHook(k.now, ev, name)
	}
}

// seqBase is the first ordinary sequence number. The sequence numbers
// below it are ranks: an event scheduled with AtRanked takes its rank as
// its sequence number, so it sorts ahead of every ordinary event at its
// instant.
const seqBase = 1 << 32

// Rank orders a recurring event ahead of every ordinary event at its
// instant (see AtRanked). Ranks are handed out by Kernel.NewRank.
type Rank uint32

// New returns a kernel whose random source is seeded with seed.
// The same seed always produces an identical run.
func New(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed)), seq: seqBase}
}

// Now reports the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// At schedules fn to run at instant t, which must not be in the past.
func (k *Kernel) At(t Time, fn func()) Handle {
	k.seq++
	return k.schedule(t, k.seq, fn)
}

// schedule pushes a record for fn at (t, seq) onto the heap. The caller
// has drawn seq from k.seq.
func (k *Kernel) schedule(t Time, seq uint64, fn func()) Handle {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	var e *event
	if n := len(k.free) - 1; n >= 0 {
		e = k.free[n]
		k.free[n] = nil
		k.free = k.free[:n]
	} else {
		e = &event{}
	}
	e.when, e.seq, e.fn = t, seq, fn
	if k.hole { // the first event a callback schedules takes the vacated root
		k.hole = false
		k.heap[0] = e
		k.siftDown(0)
	} else {
		k.push(e)
	}
	return Handle{k: k, e: e, seq: seq}
}

// NewRank hands out the next rank. Ranks order events at one instant in
// the order NewRank handed them out.
func (k *Kernel) NewRank() Rank {
	if k.ranks == 1<<32-1 {
		panic("sim: ranks exhausted")
	}
	k.ranks++
	return k.ranks
}

// AtRanked schedules fn to run at instant t, which must not be in the
// past, ahead of every ordinary event at t (At, After, stream entries,
// posts), even one scheduled earlier; ranked events at one instant fire
// in rank order. It draws no sequence number, so it does not shift the
// order of ordinary events. One rank serves one chain of events, at most
// one of them scheduled at a time; since the rank is reused, there is no
// Handle to cancel through.
func (k *Kernel) AtRanked(t Time, r Rank, fn func()) {
	k.schedule(t, uint64(r), fn)
}

// Ranked reports whether the firing event was scheduled with AtRanked.
func (k *Kernel) Ranked() bool { return k.ranked }

// Fired reports how many events the kernel has fired: every At, After,
// AtRanked and Post callback, and every stream entry.
func (k *Kernel) Fired() int64 { return k.fired }

// After schedules fn to run d from now. Negative d is treated as zero.
func (k *Kernel) After(d Duration, fn func()) Handle {
	k.seq++
	return k.schedule(k.now.Add(max(d, 0)), k.seq, fn)
}

// Stop makes Run return after the currently firing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// step fires the earliest pending event. It reports false when no events
// remain. The fired record is recycled, and the root vacated, before its
// callback runs, so a callback that immediately reschedules (the common
// timer-tick pattern) reuses the same cache-hot record and root.
func (k *Kernel) step() bool {
	e := k.min()
	if e == nil {
		return false
	}
	if e.when < k.now {
		panic("sim: event heap time went backwards")
	}
	k.hole = true
	e.index = -1
	k.now = e.when
	k.ranked = e.seq < seqBase
	k.fired++
	fn := e.fn
	e.fn = nil
	e.seq = 0 // invalidate outstanding handles
	k.free = append(k.free, e)
	fn()
	return true
}

// Run fires events until none remain or Stop is called. Processes parked on
// signals with no pending wakeup are left parked; this mirrors a simulation
// that has gone quiescent.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.step() {
	}
}

// RunUntil fires events up to and including instant t, then sets the clock
// to t if it has not already advanced past it. If Stop fired mid-run the
// clock stays at the last fired event: events scheduled before t may still
// be pending, and warping past them would make a later RunUntil pop an
// event from the clock's past.
func (k *Kernel) RunUntil(t Time) {
	k.stopped = false
	for !k.stopped {
		if e := k.min(); e == nil || e.when > t {
			break
		}
		k.step()
	}
	if !k.stopped && k.now < t {
		k.now = t
	}
}

// Pending reports the number of scheduled events, stream entries
// included. Canceled events are removed from the heap eagerly, so every
// counted event will fire.
func (k *Kernel) Pending() int { k.min(); return len(k.heap) + k.queued }

// --- Binary event heap -----------------------------------------------------
//
// Entries are *event pointers, so every comparison loads a record and a
// wider (4-ary) node saves no cache misses; the index field supports
// O(log n) removal for Cancel. step leaves the root vacated (hole) while
// the callback runs, and the callback's first, usually near-term, event
// is written into the root and sifted down: one short sift per event, not
// a pop's root-to-leaf sift plus a push. If the callback schedules
// nothing, min fills the hole with the last entry at the next read.

func eventLess(a, b *event) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

func (k *Kernel) push(e *event) {
	e.index = int32(len(k.heap))
	k.heap = append(k.heap, e)
	k.siftUp(int(e.index))
}

// min returns the earliest event, or nil when none is scheduled, after
// filling a vacated root.
func (k *Kernel) min() *event {
	if k.hole {
		k.fill()
	}
	if len(k.heap) == 0 {
		return nil
	}
	return k.heap[0]
}

// fill moves the last entry into the vacated root and sifts it down.
func (k *Kernel) fill() {
	n := len(k.heap) - 1
	k.hole, k.heap[0] = false, k.heap[n]
	k.heap[n] = nil
	k.heap = k.heap[:n]
	if n > 0 {
		k.siftDown(0)
	}
}

// remove deletes e from an arbitrary heap position.
func (k *Kernel) remove(e *event) {
	k.min() // the sifts below assume a whole heap, and a fill may move e
	i := int(e.index)
	h := k.heap
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	k.heap = h[:n]
	if i < n {
		h[i] = last
		last.index = int32(i)
		k.siftDown(i)
		k.siftUp(int(last.index))
	}
	e.index = -1
}

func (k *Kernel) siftUp(i int) {
	h := k.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) >> 1
		p := h[parent]
		if !eventLess(e, p) {
			break
		}
		h[i] = p
		p.index = int32(i)
		i = parent
	}
	h[i] = e
	e.index = int32(i)
}

func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	e := h[i]
	for {
		c := i<<1 + 1
		if c >= n {
			break
		}
		if c+1 < n && eventLess(h[c+1], h[c]) {
			c++
		}
		if !eventLess(h[c], e) {
			break
		}
		h[i] = h[c]
		h[i].index = int32(i)
		i = c
	}
	h[i] = e
	e.index = int32(i)
}
