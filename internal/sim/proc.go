//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"sync"
)

// Proc is a simulation process: model logic that runs sequentially against
// the virtual clock on a coroutine (iter.Pull, a runtime coroswitch). A
// process blocks with Sleep or Wait; while it is blocked, control returns
// to the kernel and other events fire. Exactly one of {kernel loop, one
// process} executes at any moment, on the goroutine driving the kernel,
// so a process body needs no synchronization with the kernel.
//
// A panic in a process body unwinds out of the Kernel.Run or RunUntil that
// resumed the process, with the same panic value, on the goroutine that
// made that call, where recover can catch it; runtime.Goexit (t.Fatal, for
// one) likewise exits that goroutine. Inside a ShardSet the panic or Goexit
// reaches the caller of ShardSet.Run or RunUntil the same way. The
// re-raised panic does not carry the body's stack, and the kernel is not
// usable afterwards.
type Proc struct {
	k    *Kernel
	name string
	c    *carrier // the coroutine running this process; nil once done

	// transferFn is the cached resume closure. Sleep, SleepUntil, and the
	// wait paths run on the hot path of every simulated I/O, so they must
	// not allocate a fresh closure per call.
	transferFn func()
	// pw is the process's reusable waiter record for plain Wait. A parked
	// process waits on exactly one signal at a time, so one record (reset
	// before each enqueue) serves every Wait this process ever performs.
	pw *waiter
	// tw is the reusable timed-wait state for WaitTimeout, lazily built;
	// fired carries the outcome of its last round back to the process.
	tw    *Waiter
	fired bool
	// suspended marks a process parked in Suspend; resumed, a Resume
	// that the next Suspend has not yet taken.
	suspended, resumed bool
}

// carrier is a pooled coroutine that runs process bodies one after
// another. Building a coroutine costs about ten allocations, and the
// layers above spawn a short-lived process per mediated command and build
// a kernel per testbed, experiment cell and shard domain, so a carrier
// whose body returned goes back to a process-wide pool and runs a later
// Spawn's body, on any kernel, instead of exiting.
type carrier struct {
	next  func() (struct{}, bool) // resume the coroutine
	stop  func()                  // end an idle coroutine; its goroutine exits
	yield func(struct{}) bool     // suspend it, from inside
	p     *Proc                   // process to run next, or running; nil when idle
	fn    func(p *Proc)
}

// maxIdleCarriers bounds the carrier pool. An idle carrier holds a parked
// goroutine and its stack; one retiring into a full pool is stopped.
const maxIdleCarriers = 1024

// carriers is the process-wide pool of idle carriers. It is shared by
// every kernel, so it is bounded by peak process concurrency rather than
// by the number of kernels ever built, and it is locked because kernels
// on different goroutines (the experiment runner's cells, parallel tests)
// spawn and retire processes concurrently. An idle carrier holds
// no reference to a process or kernel, and which carrier runs which
// process is invisible to the simulation.
var carriers struct {
	mu   sync.Mutex
	idle []*carrier
}

// getCarrier takes an idle carrier from the pool, or builds one.
func getCarrier() *carrier {
	carriers.mu.Lock()
	if n := len(carriers.idle) - 1; n >= 0 {
		c := carriers.idle[n]
		carriers.idle[n] = nil
		carriers.idle = carriers.idle[:n]
		carriers.mu.Unlock()
		return c
	}
	carriers.mu.Unlock()
	return newCarrier()
}

// putCarrier returns an idle carrier to the pool, or stops it if the pool
// is full.
func putCarrier(c *carrier) {
	carriers.mu.Lock()
	if len(carriers.idle) < maxIdleCarriers {
		carriers.idle = append(carriers.idle, c)
		carriers.mu.Unlock()
		return
	}
	carriers.mu.Unlock()
	c.stop()
}

// Spawn starts fn as a new process. The process begins executing at the
// current simulation time, after already-scheduled events for this instant.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	c := getCarrier()
	p := &Proc{k: k, name: name, c: c}
	p.transferFn = func() { p.transfer() }
	c.p, c.fn = p, fn
	k.procs++
	k.notifyProc(ProcSpawn, name)
	k.After(0, p.transferFn)
	return p
}

// newCarrier builds an idle carrier. Its coroutine starts at the first
// resume and then loops: run the assigned body, drop it, and suspend
// until a later Spawn assigns the next body, or until stop ends it.
func newCarrier() *carrier {
	c := &carrier{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			c.fn(c.p)
			c.p, c.fn = nil, nil
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// transfer hands control from the kernel loop to the process and blocks the
// kernel until the process parks or finishes. A finished process retires
// here, on the kernel's side, so its carrier is suspended before any other
// kernel can take it from the pool.
func (p *Proc) transfer() {
	c := p.c
	if c == nil {
		panic(fmt.Sprintf("sim: resume of finished process %q", p.name))
	}
	c.next()
	if c.p == nil {
		p.c = nil
		p.k.procs--
		p.k.notifyProc(ProcExit, p.name)
		putCarrier(c)
	}
}

// park returns control to the kernel loop and blocks until the process is
// resumed by a scheduled event.
func (p *Proc) park() {
	p.k.notifyProc(ProcPark, p.name)
	p.c.yield(struct{}{})
	p.k.notifyProc(ProcWake, p.name)
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now reports the current simulation time.
func (p *Proc) Now() Time { return p.k.now }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.c == nil }

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.k.After(d, p.transferFn)
	p.park()
}

// SleepUntil suspends the process until instant t. If t is not after the
// current time the process still yields once, allowing other events at this
// instant to run first.
func (p *Proc) SleepUntil(t Time) {
	if t < p.k.now {
		t = p.k.now
	}
	p.k.At(t, p.transferFn)
	p.park()
}

// Yield lets all other events scheduled for the current instant run before
// the process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Wait parks the process until s is broadcast or signaled to it.
func (p *Proc) Wait(s *Signal) {
	s.add(p)
	p.park()
}

// WaitCond repeatedly waits on s until cond reports true. It checks cond
// before the first wait, so a condition that already holds returns
// immediately.
func (p *Proc) WaitCond(s *Signal, cond func() bool) {
	for !cond() {
		p.Wait(s)
	}
}

// WaitTimeout parks the process until s fires or d elapses. It reports true
// if the signal fired, false on timeout.
func (p *Proc) WaitTimeout(s *Signal, d Duration) bool {
	if p.tw == nil {
		p.tw = p.k.NewWaiter(func(fired bool) {
			p.fired = fired
			p.transfer()
		})
	}
	p.tw.WaitTimeout(s, d)
	p.park()
	return p.fired
}

// Suspend parks the process until a callback calls Resume. It is the
// blocking half of an operation that runs as scheduled callbacks: the
// process starts the operation and suspends, and the operation's final
// step resumes it. If that step already ran, Suspend returns at once.
func (p *Proc) Suspend() {
	if !p.resumed {
		p.suspended = true
		p.park()
	}
	p.resumed = false
}

// Resume continues a process parked in Suspend inline, inside the event
// that calls it: the process runs until it next blocks or returns, as it
// would have had it been woken by that event. An operation that completes
// at once calls it before Suspend, which then returns without parking.
func (p *Proc) Resume() {
	if p.resumed = true; p.suspended {
		p.suspended = false
		p.transfer()
	}
}

// Waiter is the callback form of Proc.Wait and Proc.WaitTimeout: a
// reusable record whose callback runs when the signal it waits on is
// broadcast or its timeout elapses, in the event slot a parked process's
// wakeup would take. It waits on one signal at a time. When the signal
// wins, the timer is still live, and the callback's event cancels it,
// so no dead timer is left in the heap; when the timer wins, the kernel
// has already recycled its record.
type Waiter struct {
	k     *Kernel
	fn    func(fired bool)
	w     *waiter // the record on the signal's list: w0, or a fresh one
	w0    waiter
	s     *Signal
	timer Handle
	// timeout is the cached timer callback, bound at the first
	// WaitTimeout: a waiter that never times out does not build it.
	timeout func()
}

// NewWaiter returns a waiter whose callback is fn; fired reports whether
// the signal, not the timeout, ended the wait. It builds two objects: the
// waiter, which holds its first wait record, and that record's wakeup.
func (k *Kernel) NewWaiter(fn func(fired bool)) *Waiter {
	t := &Waiter{k: k, fn: fn}
	t.w0.owner = t
	t.w0.bind()
	t.w = &t.w0
	return t
}

// Wait enqueues the waiter on s; the next Broadcast runs the callback.
func (t *Waiter) Wait(s *Signal) {
	if t.w.inflight > 0 {
		// A broadcast wakeup for the previous wait is still scheduled (the
		// timer won that race at the same instant). That record drains
		// dead; a fresh one serves this and later waits.
		t.w = &waiter{owner: t}
		t.w.bind()
	}
	t.s, t.w.done = s, false
	s.addWaiter(t.w)
}

// WaitTimeout enqueues the waiter on s and starts a timer of d: the
// callback runs once, when s is broadcast or d elapses, whichever is first.
func (t *Waiter) WaitTimeout(s *Signal, d Duration) {
	t.Wait(s)
	if t.timeout == nil {
		t.timeout = t.timedOut
	}
	t.timer = t.k.After(max(d, 0), t.timeout)
}

func (t *Waiter) signaled() {
	t.timer.Cancel() // a no-op for an untimed wait
	t.timer = Handle{}
	t.fn(true)
}

func (t *Waiter) timedOut() {
	t.timer = Handle{}
	t.w.done = true
	t.s.remove(t.w)
	t.fn(false)
}

// Signal is a broadcast condition variable for processes. Broadcast wakes
// every currently parked waiter; waiters that arrive afterwards wait for the
// next broadcast.
type Signal struct {
	k       *Kernel
	waiters []*waiter
	spare   []*waiter // ping-pong buffer: Broadcast swaps, never reallocates
	name    string
	suffix  string // appended to name when printed, so no caller concatenates
}

// waiter is one parked wait. Records are long-lived (a process or a
// Waiter reuses one record across all its waits), so the Broadcast wake
// event is a closure built once, not per broadcast. The wakeup continues
// the process (wake) or the Waiter that owns the record. inflight counts
// scheduled wake events that have not yet run; a record must not be
// re-enqueued while one is outstanding or the stale wakeup would fire the
// next wait early.
type waiter struct {
	wake     func()
	owner    *Waiter
	fire     func() // cached Broadcast wake event
	done     bool
	inflight int
}

// newWaiter builds a process's waiter record whose wakeup is wake.
func newWaiter(wake func()) *waiter {
	w := &waiter{wake: wake}
	w.bind()
	return w
}

// bind builds the record's Broadcast wake event.
func (w *waiter) bind() {
	w.fire = func() {
		w.inflight--
		if w.done {
			return
		}
		w.done = true
		if w.owner != nil {
			w.owner.signaled()
			return
		}
		w.wake()
	}
}

// NewSignal returns a signal bound to kernel k.
func (k *Kernel) NewSignal(name string) *Signal { return &Signal{k: k, name: name} }

func (s *Signal) add(p *Proc) {
	if p.pw == nil {
		p.pw = newWaiter(p.transferFn)
	}
	p.pw.done = false
	s.addWaiter(p.pw)
}

func (s *Signal) addWaiter(w *waiter) { s.waiters = append(s.waiters, w) }

func (s *Signal) remove(w *waiter) {
	for i, x := range s.waiters {
		if x == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// Broadcast wakes all waiters at the current instant. Wakeups are scheduled
// events, so the caller continues first.
func (s *Signal) Broadcast() {
	ws := s.waiters
	if len(ws) == 0 {
		return
	}
	s.waiters = s.spare[:0]
	for _, w := range ws {
		w.inflight++
		s.k.After(0, w.fire)
	}
	s.spare = ws[:0]
}

// Waiters reports how many processes are parked on the signal.
func (s *Signal) Waiters() int { return len(s.waiters) }

// String identifies the signal by name.
func (s *Signal) String() string { return fmt.Sprintf("signal(%s%s)", s.name, s.suffix) }
