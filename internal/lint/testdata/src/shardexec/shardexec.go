// Fixture for the simdrift analyzer modeling a parallel shard
// executor's shape (a helper-worker pool over barrier windows):
// OS-thread worker goroutines coordinated by atomic epochs. Such an
// executor is legitimate concurrency inside a sim package when worker
// count cannot affect the window schedule, so it carries a reasoned
// //bmcast:allow — but the same shape WITHOUT the directive must be
// flagged: an unannotated goroutine in sim code is exactly the drift the
// analyzer exists for.
package fixture

import (
	"runtime"
	"sync/atomic"
)

type executor struct {
	epoch atomic.Uint64
	quit  atomic.Bool
	next  atomic.Int64
	done  atomic.Int64
}

// spawnWorkersAllowed mirrors the real executor: the go statement is
// deliberate, reasoned, and suppressed by the directive on its line.
func (e *executor) spawnWorkersAllowed(n int, work func()) {
	for i := 1; i < n; i++ {
		go func() { //bmcast:allow simdrift fixture: barrier-synchronized shard worker; work-stealing order cannot affect the window schedule
			seen := uint64(0)
			for !e.quit.Load() {
				if cur := e.epoch.Load(); cur != seen {
					seen = cur
					work()
					e.done.Add(1)
					continue
				}
				runtime.Gosched()
			}
		}()
	}
}

// spawnWorkersBare is the same shape with no directive: flagged.
func (e *executor) spawnWorkersBare(work func()) {
	go func() { // want "go statement"
		for !e.quit.Load() {
			work()
			runtime.Gosched()
		}
	}()
}

// stealDomain is the work-stealing loop body; pure atomics, no
// goroutines, no findings.
func (e *executor) stealDomain(domains []func()) {
	for {
		i := int(e.next.Add(1)) - 1
		if i >= len(domains) {
			return
		}
		domains[i]()
		e.done.Add(1)
	}
}

// mergeMailboxes drains per-shard outboxes through a channel race: the
// select makes barrier merge order depend on runtime readiness, which is
// exactly the nondeterminism the executor's sorted merge avoids.
func mergeMailboxes(a, b chan int, sink func(int)) {
	for {
		select { // want "resolves readiness ties nondeterministically"
		case v, ok := <-a:
			if !ok {
				return
			}
			sink(v)
		case v := <-b:
			sink(v)
		}
	}
}
