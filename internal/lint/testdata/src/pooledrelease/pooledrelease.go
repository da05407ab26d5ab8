// Fixture for the pooledrelease analyzer: touching a pooled record after
// returning it to its free list is flagged; conditional early-return
// release paths and reassignment (taking a fresh record) are not.
package fixture

type record struct {
	id   int
	data []byte
}

type pool struct {
	freeList []*record
}

func (p *pool) get() *record {
	if n := len(p.freeList) - 1; n >= 0 {
		r := p.freeList[n]
		p.freeList = p.freeList[:n]
		return r
	}
	return &record{}
}

func (p *pool) release(r *record) {
	r.data = r.data[:0]
	p.freeList = append(p.freeList, r)
}

func badUseAfterRelease(p *pool) int {
	r := p.get()
	r.id = 1
	p.release(r)
	return r.id // want "used after being released"
}

func badUseAfterFreelistPush(p *pool, r *record) {
	p.freeList = append(p.freeList, r)
	r.id = 7 // want "used after being released"
}

func badWriteInLaterBranch(p *pool, cond bool) {
	r := p.get()
	p.release(r)
	if cond {
		r.id = 9 // want "used after being released"
	}
}

func badDoubleRelease(p *pool) {
	r := p.get()
	p.release(r)
	p.release(r) // want "used after being released"
}

func goodEarlyReturnRelease(p *pool, fail bool) int {
	r := p.get()
	if fail {
		p.release(r)
		return -1
	}
	id := r.id // the release above is on the abandoned branch
	p.release(r)
	return id
}

func goodReassignmentRevives(p *pool) int {
	r := p.get()
	p.release(r)
	r = p.get()
	return r.id // fresh record
}

func goodReleaseLast(p *pool) int {
	r := p.get()
	id := r.id
	p.release(r)
	return id
}

func allowedUse(p *pool) int {
	r := p.get()
	p.release(r)
	//bmcast:allow pooledrelease fixture: the escape hatch
	return r.id
}

// Free pushes the record onto a package-level free list, which marks
// *record as a pooled type, so the receiver form r.Free() also counts as
// a release.
var recordFreeList []*record

func (r *record) Free() { recordFreeList = append(recordFreeList, r) }

func badUseAfterSelfFree(r *record) {
	r.Free()
	r.id = 3 // want "used after being released"
}

// gauge has a Release method but is never pooled anywhere in this
// package: semaphore-style release-then-reuse must not be flagged.
type gauge struct{ held int }

func (g *gauge) Acquire() { g.held++ }
func (g *gauge) Release() { g.held-- }

func goodSemaphoreRelease(g *gauge) int {
	g.Acquire()
	g.Release()
	g.Acquire() // not a pooled record: reuse is the whole point
	return g.held
}

// The CFG engine sees releases on every path, not just straight-line
// statement order: if-init releases, loop back-edges and defers are all
// modeled.

func badReleaseInIfInit(p *pool, r *record) {
	if q := p.get(); q != nil {
		p.release(r)
	} else {
		p.release(r)
	}
	r.id = 4 // want "used after being released"
}

func consume(int) {}

func badDeferAfterRelease(p *pool) {
	r := p.get()
	p.release(r)
	defer consume(r.id) // want "used after being released"
}

func goodDeferredReleaseRunsLast(p *pool) int {
	r := p.get()
	defer p.release(r)
	return r.id // the deferred release has not happened yet
}

// lease has an exported Release API on a non-pool receiver and its type
// is never pushed onto a free list: returning a lease is not recycling
// memory, and touching it afterwards is legal.
type lease struct{ state int }

type controller struct{ leases []*lease }

func (c *controller) Release(l *lease) { l.state = 2 }

func goodLeaseReleaseIsNotPooling(c *controller, l *lease) int {
	if c == nil {
		return 0
	}
	c.Release(l)
	return l.state // still a live object, not recycled memory
}

// An exported Put on a pool-named receiver is pooling, evidence or not.
type bufPool struct{ items []*record }

func (p *bufPool) Put(r *record) { p.items = append(p.items, r) }

func badExportedPutOnPool(pp *bufPool, r *record) {
	pp.Put(r)
	r.id = 5 // want "used after being released"
}

// Every later occurrence of a released variable counts, whatever its
// shape: a read inside a closure, its address, a discard, a nil check.

func badClosureAfterRelease(p *pool) func() int {
	r := p.get()
	p.release(r)
	return func() int { return r.id } // want "used after being released"
}

func badAddressAfterRelease(p *pool) **record {
	r := p.get()
	p.release(r)
	q := &r // want "used after being released"
	return q
}

func badDiscardAndNilCheckAfterRelease(p *pool) bool {
	r := p.get()
	p.release(r)
	_ = r           // want "used after being released"
	return r == nil // want "used after being released"
}

func badTwoUsesAfterOneRelease(p *pool) int {
	r := p.get()
	p.release(r)
	r.id = 1    // want "used after being released"
	return r.id // want "used after being released"
}

func badEachValueOfOnePush(p *pool, a, b *record) {
	p.freeList = append(p.freeList, a, b)
	a.id = 1 // want "used after being released"
	b.id = 2 // want "used after being released"
}

// A reassignment revives the variable only after its right-hand side
// has read it; a write inside a closure is a use, not a revival.

func (r *record) next() *record { return r }

func badReadInReviving(p *pool) int {
	r := p.get()
	p.release(r)
	r = r.next() // want "used after being released"
	return r.id
}

func badWriteInClosure(p *pool) {
	r := p.get()
	p.release(r)
	reset := func() { r = nil } // want "used after being released"
	reset()
}

// A variable captured by a closure or address-taken before its release
// is still tracked after it.

func badUseAfterReleaseOfCaptured(p *pool) int {
	r := p.get()
	defer func() { _ = r }()
	p.release(r)
	return r.id // want "used after being released"
}

func badUseAfterReleaseOfAddressTaken(p *pool) int {
	r := p.get()
	q := &r
	_ = q
	p.release(r)
	return r.id // want "used after being released"
}

// A release inside a function literal or a go statement runs at another
// point in time, so it poisons nothing after it.

func goodReleaseInFuncLit(p *pool) int {
	r := p.get()
	done := func() { p.release(r) }
	_ = done
	return r.id
}

func goodReleaseInGoStmt(p *pool) int {
	r := p.get()
	go p.release(r)
	return r.id
}

// Not flagged, though the second iteration touches a released record:
// under the must-join the loop head meets the entry edge (not released).
func loopReleaseSeenOnBackEdgeOnly(p *pool) {
	r := p.get()
	for i := 0; i < 2; i++ {
		r.id = i
		p.release(r)
	}
}

// Parentheses around the released value do not hide it.
func badUseAfterParenthesizedRelease(p *pool) int {
	r := p.get()
	p.release((r))
	return (r).id // want "used after being released"
}
