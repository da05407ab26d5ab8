package workload

import (
	"repro/internal/cpuvirt"
	"repro/internal/machine"
	"repro/internal/sim"
)

// ThreadsResult is one SysBench threads measurement.
type ThreadsResult struct {
	Threads int
	Elapsed sim.Duration
}

// SysbenchThreads runs the §5.5.1 thread benchmark: each of n threads
// performs 1000 acquire–yield–release sequences over 8 shared mutexes.
// Under a conventional VMM the lock-holder preemption problem appears: a
// handoff occasionally lands on a descheduled holder and stalls for a
// scheduling quantum. The effect grows with thread count.
//
// The threads run as kernel callbacks, not processes (DESIGN.md §5a,
// "Event-driven guest"); the calling process parks once, until the last
// thread finishes.
func SysbenchThreads(p *sim.Proc, m *machine.Machine, threads int) ThreadsResult {
	return sysbenchThreads(p, m, threads, nil)
}

// lockHook observes a SysBench thread taking (acquired true) or
// releasing one of the mutexes.
type lockHook func(thread, mutex int, acquired bool)

// SysBench threads parameters.
const (
	sbIterations = 1000
	sbMutexes    = 8
	sbCritical   = 3 * sim.Microsecond // work inside the lock
	sbThink      = 2 * sim.Microsecond // work outside the lock
)

// sbRun is one SysbenchThreads measurement in flight.
type sbRun struct {
	k        *sim.Kernel
	world    *cpuvirt.World
	mutexes  [sbMutexes]*sim.Resource
	lhpDelay sim.Duration
	threads  int
	done     int
	resume   func() // resumes the measuring process
	hook     lockHook
}

// sbStep is where a thread's step function resumes.
type sbStep uint8

const (
	atAcquire  sbStep = iota // take the iteration's mutex
	atCritical               // the critical section, after any LHP stall
	atYield                  // yield inside the lock
	atRelease                // release, then think
	atEnd                    // the last think time is over
)

// sbThread is one SysBench thread. It runs as kernel callbacks: every
// point at which the process-form thread blocked (the mutex wait, the
// LHP stall, the critical work, the yield, the think time) schedules
// exactly one step, in the (when, seq) slot the blocked thread's wakeup
// took. Its steps are bound once, when the thread is built.
type sbThread struct {
	r      *sbRun
	id, i  int
	pc     sbStep
	stepFn func()
	waiter *sim.Waiter // mutex waits
}

// sysbenchThreads is SysbenchThreads with an optional lock observer.
func sysbenchThreads(p *sim.Proc, m *machine.Machine, threads int, hook lockHook) ThreadsResult {
	start := p.Now()
	if threads <= 0 {
		return ThreadsResult{Threads: threads}
	}
	world := m.World
	r := &sbRun{k: m.K, world: world, threads: threads, resume: p.Resume, hook: hook}
	for i := range r.mutexes {
		r.mutexes[i] = sim.NewResource(m.K, "sb.mutex", 1)
	}
	// Lock-holder preemption as expected value: the chance a holder is
	// descheduled grows with runnable threads, and the expected stall per
	// critical section stretches the serialized path. (Discrete stall
	// events convoy the whole run and over-penalize; the expectation
	// reproduces the paper's smooth growth with thread count.)
	r.lhpDelay = sim.Duration(world.Overheads.LHPProb * float64(threads) * float64(world.Overheads.LHPStall))
	ts := make([]sbThread, threads)
	for i := range ts {
		th := &ts[i]
		th.r, th.id = r, i
		th.stepFn = th.step
		th.waiter = m.K.NewWaiter(th.woken)
		m.K.After(0, th.stepFn) // the slot the thread's Spawn took
	}
	p.Suspend()
	return ThreadsResult{Threads: threads, Elapsed: p.Now().Sub(start)}
}

// woken retries the mutex after a release's wakeup.
func (th *sbThread) woken(bool) { th.step() }

// step runs the thread until it blocks or finishes. The slowdown is read
// at every step: the VMM's CPU tax can change during a run.
func (th *sbThread) step() {
	r := th.r
	mutex := (th.id + th.i) % sbMutexes
	switch th.pc {
	case atAcquire:
		if !r.mutexes[mutex].AcquireWait(th.waiter) {
			return
		}
		if r.hook != nil {
			r.hook(th.id, mutex, true)
		}
		th.pc = atCritical
		if r.lhpDelay > 0 {
			r.k.After(r.lhpDelay, th.stepFn)
			return
		}
		fallthrough
	case atCritical:
		th.pc = atYield
		r.k.After(sim.Duration(float64(sbCritical)*r.world.Slowdown(0.2)), th.stepFn)
	case atYield:
		th.pc = atRelease
		r.k.After(0, th.stepFn)
	case atRelease:
		if r.hook != nil {
			r.hook(th.id, mutex, false)
		}
		r.mutexes[mutex].Release()
		th.i++
		th.pc = atAcquire
		if th.i == sbIterations {
			th.pc = atEnd
		}
		r.k.After(sim.Duration(float64(sbThink)*r.world.Slowdown(0.2)), th.stepFn)
	case atEnd:
		// The last thread to end wakes the measuring process, in the
		// slot its done broadcast's wakeup took.
		r.done++
		if r.done == r.threads {
			r.k.After(0, r.resume)
		}
	}
}

// MemoryResult is one SysBench memory measurement.
type MemoryResult struct {
	BlockBytes int64
	Elapsed    sim.Duration
	Rate       float64 // bytes/sec
}

// SysbenchMemory runs the §5.5.1 memory benchmark: repeatedly allocate a
// block and write it until totalBytes have been written. Allocation is
// CPU-bound; the writes are memory-bound, where nested paging and cache
// pollution bite (KVM: +35% at 16 KB blocks).
func SysbenchMemory(p *sim.Proc, m *machine.Machine, blockBytes, totalBytes int64) MemoryResult {
	const (
		allocCost = 900 * sim.Nanosecond // malloc + page touch per block
		memRate   = 6e9                  // bare-metal single-thread store bandwidth
	)
	world := m.World
	start := p.Now()
	blocks := totalBytes / blockBytes
	// Batch the simulated loop: every block costs alloc (low memShare)
	// plus the block write (pure memory work).
	allocTotal := sim.Duration(float64(allocCost) * float64(blocks) * world.Slowdown(0.2))
	writeTotal := sim.Duration(float64(sim.RateDuration(totalBytes, memRate)) * world.Slowdown(1.0))
	p.Sleep(allocTotal + writeTotal)
	elapsed := p.Now().Sub(start)
	return MemoryResult{
		BlockBytes: blockBytes,
		Elapsed:    elapsed,
		Rate:       float64(totalBytes) / elapsed.Seconds(),
	}
}
