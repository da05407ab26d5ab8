package sim

import (
	"fmt"
	"runtime"
	"testing"
)

func TestProcSleep(t *testing.T) {
	k := New(1)
	var wake Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Second)
		wake = p.Now()
	})
	k.Run()
	if wake != Time(5*Second) {
		t.Fatalf("woke at %v, want 5s", wake)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	k := New(1)
	var marks []Time
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Second)
			marks = append(marks, p.Now())
		}
	})
	k.Run()
	want := []Time{Time(Second), Time(2 * Second), Time(3 * Second)}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	k := New(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Sleep(1 * Second)
		order = append(order, "a1")
		p.Sleep(2 * Second) // wakes at 3s
		order = append(order, "a3")
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(2 * Second)
		order = append(order, "b2")
	})
	k.Run()
	if len(order) != 3 || order[0] != "a1" || order[1] != "b2" || order[2] != "a3" {
		t.Fatalf("interleaving wrong: %v", order)
	}
}

func TestSignalBroadcast(t *testing.T) {
	k := New(1)
	s := k.NewSignal("go")
	woken := 0
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) {
			p.Wait(s)
			woken++
		})
	}
	k.Spawn("caster", func(p *Proc) {
		p.Sleep(Second)
		s.Broadcast()
	})
	k.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestSignalNoSpuriousWake(t *testing.T) {
	k := New(1)
	s := k.NewSignal("never")
	woken := false
	k.Spawn("w", func(p *Proc) {
		p.Wait(s)
		woken = true
	})
	k.Run() // goes quiescent with the waiter parked
	if woken {
		t.Fatal("waiter woke without broadcast")
	}
	if s.Waiters() != 1 {
		t.Fatalf("Waiters = %d, want 1", s.Waiters())
	}
}

func TestWaitCond(t *testing.T) {
	k := New(1)
	s := k.NewSignal("cond")
	n := 0
	var done Time
	k.Spawn("waiter", func(p *Proc) {
		p.WaitCond(s, func() bool { return n >= 3 })
		done = p.Now()
	})
	k.Spawn("incr", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Second)
			n++
			s.Broadcast()
		}
	})
	k.Run()
	if done != Time(3*Second) {
		t.Fatalf("condition met at %v, want 3s", done)
	}
}

func TestWaitCondAlreadyTrue(t *testing.T) {
	k := New(1)
	s := k.NewSignal("cond")
	reached := false
	k.Spawn("waiter", func(p *Proc) {
		p.WaitCond(s, func() bool { return true })
		reached = true
	})
	k.Run()
	if !reached {
		t.Fatal("WaitCond blocked on an already-true condition")
	}
}

func TestWaitTimeoutFires(t *testing.T) {
	k := New(1)
	s := k.NewSignal("slow")
	var fired bool
	var at Time
	k.Spawn("w", func(p *Proc) {
		fired = p.WaitTimeout(s, 2*Second)
		at = p.Now()
	})
	k.Spawn("caster", func(p *Proc) {
		p.Sleep(Second)
		s.Broadcast()
	})
	k.Run()
	if !fired || at != Time(Second) {
		t.Fatalf("WaitTimeout fired=%v at %v, want true at 1s", fired, at)
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	k := New(1)
	s := k.NewSignal("never")
	var fired bool
	var at Time
	k.Spawn("w", func(p *Proc) {
		fired = p.WaitTimeout(s, 2*Second)
		at = p.Now()
	})
	k.Run()
	if fired || at != Time(2*Second) {
		t.Fatalf("WaitTimeout fired=%v at %v, want false at 2s", fired, at)
	}
	if s.Waiters() != 0 {
		t.Fatalf("timed-out waiter still registered: %d", s.Waiters())
	}
}

func TestWaitTimeoutLateBroadcastHarmless(t *testing.T) {
	k := New(1)
	s := k.NewSignal("late")
	var wakes int
	k.Spawn("w", func(p *Proc) {
		p.WaitTimeout(s, Second)
		wakes++
	})
	k.Spawn("caster", func(p *Proc) {
		p.Sleep(5 * Second)
		s.Broadcast() // waiter already timed out; must not double-wake
	})
	k.Run()
	if wakes != 1 {
		t.Fatalf("process woke %d times, want 1", wakes)
	}
}

// TestWaitTimeoutRoundsAllocateNothing pins the timed wait's steady state:
// a round the signal wins and a round that times out each allocate
// nothing, and each leaves no event behind. In particular the timer of a
// round the signal won is gone, so the clock stops at the signal rather
// than running on to the dead timer.
func TestWaitTimeoutRoundsAllocateNothing(t *testing.T) {
	k := New(1)
	s, gate := k.NewSignal("s"), k.NewSignal("gate")
	var fired bool
	k.Spawn("waiter", func(p *Proc) {
		for {
			p.Wait(gate)
			fired = p.WaitTimeout(s, Second)
		}
	})
	broadcast := func() { s.Broadcast() }
	k.Run() // the waiter parks on gate
	for _, win := range []bool{true, false} {
		allocs := testing.AllocsPerRun(100, func() {
			start := k.Now()
			gate.Broadcast()
			if win {
				k.After(Millisecond, broadcast)
			}
			k.Run()
			end := start.Add(Second)
			if win {
				end = start.Add(Millisecond)
			}
			if fired != win || k.Now() != end || k.Pending() != 0 {
				t.Fatalf("signal wins=%v: fired=%v, ended at %v (want %v), %d events pending",
					win, fired, k.Now().Sub(start), end.Sub(start), k.Pending())
			}
		})
		if allocs != 0 {
			t.Fatalf("signal wins=%v: a WaitTimeout round allocates %v objects, want 0", win, allocs)
		}
	}
}

// TestWaitTimeoutAfterSameInstantRace covers the round after a timer that
// beat a broadcast at the same instant: the waiter's wakeup is still
// scheduled, so the next round waits on a one-shot waiter. When the
// signal wins that round, its timer is discarded too.
func TestWaitTimeoutAfterSameInstantRace(t *testing.T) {
	k := New(1)
	s := k.NewSignal("s")
	k.At(Time(Second), s.Broadcast) // due with the first timer, ordered before it
	k.At(Time(Second+Second/2), s.Broadcast)
	var got []bool
	k.Spawn("w", func(p *Proc) {
		got = append(got, p.WaitTimeout(s, Second))
		got = append(got, p.WaitTimeout(s, Second))
	})
	k.Run()
	if fmt.Sprint(got) != "[false true]" || k.Now() != Time(Second+Second/2) || k.Pending() != 0 {
		t.Fatalf("rounds fired %v, run ended at %v with %d events pending; want [false true] at 1.5s with none",
			got, k.Now(), k.Pending())
	}
}

func TestProcDone(t *testing.T) {
	k := New(1)
	p := k.Spawn("p", func(p *Proc) { p.Sleep(Second) })
	if p.Done() {
		t.Fatal("Done before run")
	}
	k.Run()
	if !p.Done() {
		t.Fatal("not Done after run")
	}
	if p.Name() != "p" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestYieldOrdering(t *testing.T) {
	k := New(1)
	var order []string
	k.Spawn("first", func(p *Proc) {
		order = append(order, "first-before")
		p.Yield()
		order = append(order, "first-after")
	})
	k.Spawn("second", func(p *Proc) {
		order = append(order, "second")
	})
	k.Run()
	if order[0] != "first-before" || order[1] != "second" || order[2] != "first-after" {
		t.Fatalf("yield ordering wrong: %v", order)
	}
}

func TestParkResumeAllocatesNothing(t *testing.T) {
	k := New(1)
	s := k.NewSignal("tick")
	k.Spawn("waiter", func(p *Proc) {
		for {
			p.Wait(s)
		}
	})
	k.Run() // the waiter parks on s
	allocs := testing.AllocsPerRun(1000, func() {
		s.Broadcast()
		k.Run() // one resume and one park
	})
	if allocs != 0 {
		t.Fatalf("park/resume cycle allocates %v objects, want 0", allocs)
	}
}

// idleCarriers reports the size of the process-wide carrier pool.
func idleCarriers() int {
	carriers.mu.Lock()
	defer carriers.mu.Unlock()
	return len(carriers.idle)
}

func TestSpawnReusesCarrier(t *testing.T) {
	k := New(1)
	body := func(p *Proc) { p.Yield() }
	k.Spawn("warm", body)
	k.Run()
	idle := idleCarriers()
	allocs := testing.AllocsPerRun(1000, func() {
		k.Spawn("short", body)
		k.Run()
	})
	// The Proc record and its cached transfer closure; the coroutine
	// comes from the pool.
	if allocs != 2 {
		t.Fatalf("steady-state Spawn allocates %v objects, want 2", allocs)
	}
	if got := idleCarriers(); got != idle {
		t.Fatalf("idle carriers = %d, want %d", got, idle)
	}
}

func TestCarrierPoolBoundedByConcurrency(t *testing.T) {
	// Warm the pool to this test's peak concurrency (the spawner plus one
	// child) so that goroutine counts compare like with like.
	warm := New(1)
	warm.Spawn("a", func(p *Proc) { p.Yield() })
	warm.Spawn("b", func(p *Proc) { p.Yield() })
	warm.Run()
	start, idle := runtime.NumGoroutine(), idleCarriers()
	k := New(1)
	done := 0
	k.Spawn("spawner", func(p *Proc) {
		for i := 0; i < 10_000; i++ {
			k.Spawn("child", func(c *Proc) {
				c.Sleep(Microsecond)
				done++
			})
			p.Sleep(2 * Microsecond)
		}
	})
	k.Run()
	if done != 10_000 {
		t.Fatalf("%d children finished, want 10000", done)
	}
	if got := idleCarriers(); got != idle {
		t.Fatalf("idle carriers = %d after 10000 sequential processes, want %d", got, idle)
	}
	if grew := runtime.NumGoroutine() - start; grew > 0 {
		t.Fatalf("goroutines grew by %d over 10000 sequential processes", grew)
	}
}

func TestCarrierPoolSharedAcrossKernels(t *testing.T) {
	// Every kernel draws on one pool, so building many kernels, each with
	// a burst of concurrent processes, leaves goroutines bounded by the
	// burst size rather than growing with the number of kernels.
	const kernels, burst = 200, 8
	run := func(seed int64) {
		k := New(seed)
		for i := 0; i < burst; i++ {
			k.Spawn("burst", func(p *Proc) { p.Sleep(Duration(i) * Microsecond) })
		}
		k.Run()
		if k.procs != 0 {
			t.Fatalf("kernel %d: %d live processes after Run", seed, k.procs)
		}
	}
	run(0)
	start := runtime.NumGoroutine()
	for seed := int64(1); seed <= kernels; seed++ {
		run(seed)
	}
	if grew := runtime.NumGoroutine() - start; grew > 0 {
		t.Fatalf("goroutines grew by %d over %d kernels of %d processes", grew, kernels, burst)
	}
}

func TestCarrierPoolBounded(t *testing.T) {
	// A burst wider than the pool stops the carriers that do not fit, so
	// their goroutines exit.
	k := New(1)
	for i := 0; i < maxIdleCarriers+100; i++ {
		k.Spawn("burst", func(p *Proc) { p.Sleep(Second) })
	}
	k.Run()
	if got := idleCarriers(); got != maxIdleCarriers {
		t.Fatalf("idle carriers = %d, want the cap %d", got, maxIdleCarriers)
	}
	start := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		k.Spawn("burst", func(p *Proc) { p.Sleep(Second) })
	}
	k.Run()
	if got, grew := idleCarriers(), runtime.NumGoroutine()-start; got != maxIdleCarriers || grew > 0 {
		t.Fatalf("after a second burst: idle = %d, goroutines grew by %d; want %d, 0", got, grew, maxIdleCarriers)
	}
}

func TestProcPanicPropagatesToRun(t *testing.T) {
	type boom struct{ at Time }
	for _, park := range []bool{false, true} {
		k := New(1)
		k.Spawn("bystander", func(p *Proc) { p.Sleep(3 * Second) })
		k.Spawn("faulty", func(p *Proc) {
			if park {
				p.Sleep(Second)
			}
			panic(boom{p.Now()})
		})
		got := func() (r any) {
			defer func() { r = recover() }()
			k.Run()
			return nil
		}()
		want := boom{}
		if park {
			want.at = Time(Second)
		}
		if got != want {
			t.Fatalf("park=%v: Run panicked with %v, want %v", park, got, want)
		}
	}
}

// TestSuspendResume pins both orders of the Suspend/Resume handshake: an
// operation that completes at once resumes the process before it
// suspends, and Suspend then returns without parking; one that
// completes in a later event resumes the parked process inline, inside
// that event.
func TestSuspendResume(t *testing.T) {
	k := New(1)
	parks := 0
	k.SetProcHook(func(_ Time, ev ProcEvent, _ string) {
		if ev == ProcPark {
			parks++
		}
	})
	var log []string
	k.Spawn("issuer", func(p *Proc) {
		p.Resume() // completed at once
		p.Suspend()
		log = append(log, fmt.Sprintf("inline %d parks=%d", p.Now(), parks))
		k.After(Second, func() {
			p.Resume()
			log = append(log, "after resume")
		})
		p.Suspend()
		log = append(log, fmt.Sprintf("resumed %d parks=%d", p.Now(), parks))
		p.Resume() // a second round completes at once too
		p.Suspend()
		log = append(log, fmt.Sprintf("inline %d parks=%d", p.Now(), parks))
	})
	k.Run()
	want := []string{
		"inline 0 parks=0",
		fmt.Sprintf("resumed %d parks=1", Time(Second)),
		fmt.Sprintf("inline %d parks=1", Time(Second)),
		"after resume",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %q, want %q", log, want)
	}
}

func TestResumeFinishedProcPanics(t *testing.T) {
	k := New(1)
	p := k.Spawn("short", func(p *Proc) {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("resuming a finished process did not panic")
		}
	}()
	p.transfer()
}

// TestNewWaiterAllocs pins what a Waiter costs to build: the waiter,
// which holds its first wait record, and that record's wakeup. The timer
// callback is bound at the first WaitTimeout, once.
func TestNewWaiterAllocs(t *testing.T) {
	k := New(1)
	fn := func(bool) {}
	if allocs := testing.AllocsPerRun(1000, func() { k.NewWaiter(fn) }); allocs != 2 {
		t.Fatalf("NewWaiter allocates %v objects, want 2", allocs)
	}
	s := k.NewSignal("s")
	w := k.NewWaiter(fn)
	w.WaitTimeout(s, Millisecond)
	k.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		w.WaitTimeout(s, Millisecond)
		k.Run() // the timeout fires
		w.WaitTimeout(s, Millisecond)
		s.Broadcast()
		k.Run() // the signal fires and cancels the timer
	})
	if allocs != 0 {
		t.Fatalf("a warm timed wait allocates %v objects, want 0", allocs)
	}
}
