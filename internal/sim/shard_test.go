package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// xfunc adapts a func to XHandler for tests.
type xfunc func(payload any)

func (f xfunc) XDeliver(payload any) { f(payload) }

func TestShardPostClamp(t *testing.T) {
	s := NewShardSet(1, 100*Microsecond)
	a := s.NewDomain("a")
	b := s.NewDomain("b")
	var got Time
	a.At(Time(10*Microsecond), func() {
		// Arrival inside the sending window must defer to the window end.
		a.Post(b, a.Now().Add(1*Microsecond), func() { got = b.Now() })
	})
	s.Run(nil)
	if got != Time(100*Microsecond) {
		t.Fatalf("clamped delivery at %v, want %v", got, Time(100*Microsecond))
	}
}

func TestShardPostMergeOrder(t *testing.T) {
	// Same-timestamp posts from different domains must deliver in domain
	// order regardless of which domain's window ran first.
	s := NewShardSet(1, 10*Microsecond)
	a := s.NewDomain("a")
	b := s.NewDomain("b")
	c := s.NewDomain("c")
	var order []string
	at := Time(50 * Microsecond)
	b.At(Time(1*Microsecond), func() {
		b.Post(c, at, func() { order = append(order, "from-b") })
		b.Post(c, at, func() { order = append(order, "from-b2") })
	})
	a.At(Time(2*Microsecond), func() {
		a.Post(c, at, func() { order = append(order, "from-a") })
	})
	s.Run(nil)
	want := []string{"from-a", "from-b", "from-b2"}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v, want %v", order, want)
		}
	}
}

func TestShardQuiescenceFastForward(t *testing.T) {
	// A long idle gap must be skipped, not iterated window by window: the
	// set jumps to the grid floor of the next event.
	s := NewShardSet(7, 100*Microsecond)
	a := s.NewDomain("a")
	fired := false
	a.At(Time(10*Second), func() { fired = true })
	s.Run(nil)
	if !fired {
		t.Fatal("event did not fire")
	}
	if a.Now() != Time(10*Second) {
		t.Fatalf("domain clock %v, want %v", a.Now(), Time(10*Second))
	}
}

func TestShardRunUntilHorizon(t *testing.T) {
	s := NewShardSet(7, 100*Microsecond)
	a := s.NewDomain("a")
	fired := 0
	a.At(Time(1*Millisecond), func() { fired++ })
	a.At(Time(2*Second), func() { fired++ })
	s.RunUntil(Time(1*Second), nil)
	if fired != 1 {
		t.Fatalf("fired %d events before horizon, want 1", fired)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending %d, want 1", s.Pending())
	}
	s.RunUntil(Time(3*Second), nil)
	if fired != 2 {
		t.Fatalf("fired %d events total, want 2", fired)
	}
}

// serialScenario drives a kernel through processes, timers, a Cancel and
// a Post to self, logging every proc hook and drawing from Rand along the
// way. run executes the kernel to quiescence.
func serialScenario(k *Kernel, run func()) []string {
	var log []string
	k.SetProcHook(func(t Time, ev ProcEvent, name string) {
		log = append(log, fmt.Sprintf("%v %v %s", t, ev, name))
	})
	sig := k.NewSignal("sig")
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("worker%d", i), func(p *Proc) {
			for j := 0; j < 4; j++ {
				p.Sleep(Duration(1+k.Rand().Intn(50)) * Microsecond)
				if !p.WaitTimeout(sig, Duration(k.Rand().Intn(30))*Microsecond) {
					log = append(log, fmt.Sprintf("%v %s timeout", p.Now(), p.Name()))
				}
			}
		})
	}
	var tick func()
	tick = func() {
		log = append(log, fmt.Sprintf("%v tick rng %d", k.Now(), k.Rand().Intn(1000)))
		sig.Broadcast()
		if k.Now() < Time(200*Microsecond) {
			k.After(Duration(7+k.Rand().Intn(20))*Microsecond, tick)
		}
	}
	k.After(5*Microsecond, tick)
	canceled := k.After(60*Microsecond, func() { log = append(log, "canceled event fired") })
	k.At(Time(30*Microsecond), func() {
		canceled.Cancel()
		k.Post(k, k.Now().Add(3*Microsecond), func() {
			log = append(log, fmt.Sprintf("%v post rng %d", k.Now(), k.Rand().Intn(1000)))
		})
	})
	run()
	return append(log, fmt.Sprintf("end %v rng %d", k.Now(), k.Rand().Int63()))
}

func TestSerialSetMatchesKernel(t *testing.T) {
	// The one-domain partition is the serial schedule: its kernel draws
	// from the seed itself and fires events in exactly New's order.
	k := New(11)
	want := serialScenario(k, k.Run)
	s := NewSerialSet(11)
	got := serialScenario(s.Domains()[0], func() { s.Run(nil) })
	if len(want) < 40 {
		t.Fatalf("scenario logged only %d lines", len(want))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("serial set diverges from New:\n got %q\nwant %q", got, want)
	}
	if s.Now() != k.Now() {
		t.Fatalf("frontier %v, want %v", s.Now(), k.Now())
	}
}

func TestSerialSetStopsAfterEvent(t *testing.T) {
	// On one domain every event is a barrier: RunUntil returns right
	// after the event that made stop true, without warping the clock.
	s := NewSerialSet(3)
	k := s.Domains()[0]
	fired := 0
	for i := 1; i <= 5; i++ {
		k.At(Time(i)*Time(Microsecond), func() { fired++ })
	}
	s.RunUntil(Time(Second), func() bool { return fired == 2 })
	if fired != 2 || k.Now() != Time(2*Microsecond) || s.Now() != k.Now() {
		t.Fatalf("stopped after %d events at %v (frontier %v), want 2 at %v", fired, k.Now(), s.Now(), Time(2*Microsecond))
	}
	// The horizon is exclusive and leaves the clock at the last event.
	s.RunUntil(Time(4*Microsecond), nil)
	if fired != 3 || k.Now() != Time(3*Microsecond) || s.Now() != Time(4*Microsecond) {
		t.Fatalf("horizon run fired %d events, clock %v, frontier %v", fired, k.Now(), s.Now())
	}
	s.Run(nil)
	if fired != 5 || s.Pending() != 0 {
		t.Fatalf("fired %d events, %d pending, want 5 and 0", fired, s.Pending())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewDomain on a serial set did not panic")
		}
	}()
	s.NewDomain("extra")
}

func TestShardLocalPostIsImmediate(t *testing.T) {
	// Posting to the local kernel is exact: no window clamp.
	s := NewShardSet(1, 100*Microsecond)
	a := s.NewDomain("a")
	var got Time
	a.At(Time(10*Microsecond), func() {
		a.Post(a, a.Now().Add(1*Microsecond), func() { got = a.Now() })
	})
	s.Run(nil)
	if got != Time(11*Microsecond) {
		t.Fatalf("local post delivered at %v, want %v", got, Time(11*Microsecond))
	}
}

func TestStandalonePostToSelf(t *testing.T) {
	// A kernel outside any ShardSet delivers Post and PostDeliver to
	// itself at the exact instant, in post order, clamping the past to now.
	k := New(1)
	var got []string
	h := xfunc(func(payload any) { got = append(got, fmt.Sprintf("%d %v", k.Now(), payload)) })
	k.At(Time(10*Microsecond), func() {
		k.PostDeliver(k, k.Now().Add(Microsecond), h, "deliver")
		k.Post(k, k.Now().Add(Microsecond), func() { got = append(got, fmt.Sprintf("%d post", k.Now())) })
		k.PostDeliver(k, 0, h, "past")
	})
	k.Run()
	want := "[10000 past 11000 deliver 11000 post]"
	if fmt.Sprint(got) != want {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
}

func TestStandalonePostToSelfZeroAlloc(t *testing.T) {
	// Once the delivery-record pool is warm, a local post costs nothing.
	k := New(1)
	n := 0
	fn := func() { n++ }
	var h XHandler = xfunc(func(any) { n++ })
	var payload any = &n
	for i := 0; i < 64; i++ {
		k.Post(k, Time(i), fn)
		k.PostDeliver(k, Time(i), h, payload)
	}
	k.Run()
	avg := testing.AllocsPerRun(1000, func() {
		k.Post(k, k.Now().Add(Microsecond), fn)
		k.PostDeliver(k, k.Now().Add(Microsecond), h, payload)
		k.Run()
	})
	if avg != 0 {
		t.Fatalf("local post+fire allocates %.2f objects, want 0", avg)
	}
}

func TestShardDomainSeedsIndependent(t *testing.T) {
	s := NewShardSet(99, 100*Microsecond)
	a := s.NewDomain("a")
	b := s.NewDomain("b")
	first := a.Rand().Int63()
	if first == b.Rand().Int63() {
		t.Fatal("domain RNG streams coincide")
	}
	// Rebuilding the set reproduces the same streams.
	s2 := NewShardSet(99, 100*Microsecond)
	a2 := s2.NewDomain("a")
	if got := a2.Rand().Int63(); got != first {
		t.Fatalf("rebuilt domain draws %d, want %d", got, first)
	}
}

// shardProcModel runs two processes in every domain: a sleeper whose
// sleeps span barrier windows and who posts to the next domain on each
// wake, and a waiter parked on a signal that those posts broadcast. It
// returns the per-domain logs concatenated in domain order, and the
// frontier the set reached.
func shardProcModel(window Duration) ([]string, Time) {
	const n, rounds = 4, 60
	type domain struct {
		k     *Kernel
		inbox *Signal
		got   int
		log   []string
	}
	s := NewShardSet(5, window)
	doms := make([]*domain, n)
	for i := range doms {
		k := s.NewDomain(fmt.Sprintf("d%d", i))
		doms[i] = &domain{k: k, inbox: k.NewSignal("inbox")}
	}
	for i, d := range doms {
		i, d := i, d
		next := doms[(i+1)%n]
		d.k.Spawn("sleeper", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Sleep(Duration(120+10*i) * Microsecond)
				d.log = append(d.log, fmt.Sprintf("d%d wake %d at %v", i, r, p.Now()))
				d.k.Post(next.k, p.Now().Add(2*Microsecond), func() {
					next.got++
					next.inbox.Broadcast()
				})
			}
		})
		d.k.Spawn("waiter", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.WaitCond(d.inbox, func() bool { return d.got > r })
				d.log = append(d.log, fmt.Sprintf("d%d post %d at %v", i, r, p.Now()))
			}
		})
	}
	s.Run(nil)
	var merged []string
	for _, d := range doms {
		merged = append(merged, d.log...)
	}
	return merged, s.Now()
}

func TestShardProcsInsideDomains(t *testing.T) {
	// Processes must work inside domain windows, including sleeps and
	// waits that span windows.
	const window = 50 * Microsecond
	log, end := shardProcModel(window)
	if len(log) != 4*2*60 {
		t.Fatalf("got %d log lines, want %d", len(log), 4*2*60)
	}
	if end < Time(100*window) {
		t.Fatalf("run ended at %v, under 100 windows", end)
	}
}

func BenchmarkShardWindow(b *testing.B) {
	s := NewShardSet(1, 100*Microsecond)
	doms := make([]*Kernel, 8)
	for i := range doms {
		doms[i] = s.NewDomain(fmt.Sprintf("d%d", i))
	}
	for i, k := range doms {
		k := k
		next := doms[(i+1)%len(doms)]
		var tick func()
		tick = func() {
			k.PostDeliver(next, k.Now().Add(2*Microsecond), xfunc(func(any) {}), nil)
			k.After(97*Microsecond, tick)
		}
		k.After(Duration(i+1)*Microsecond, tick)
	}
	b.ResetTimer()
	horizon := Time(0)
	for i := 0; i < b.N; i++ {
		horizon = horizon.Add(Duration(100 * Millisecond))
		s.RunUntil(horizon, nil)
	}
}

// shardFailModel builds four domains whose processes all wake in the same
// window; the ones in domains 2 and 3 then call fail.
func shardFailModel(fail func(dom int)) *ShardSet {
	s := NewShardSet(5, 50*Microsecond)
	for i := 0; i < 4; i++ {
		i := i
		s.NewDomain(fmt.Sprintf("d%d", i)).Spawn("p", func(p *Proc) {
			p.Sleep(Duration(200+i) * Microsecond)
			if i >= 2 {
				fail(i)
			}
		})
	}
	return s
}

func TestShardDomainPanicReachesCaller(t *testing.T) {
	// A panic in a domain process reaches the caller of Run: the first
	// failing domain in domain order wins.
	type boom struct{ dom int }
	s := shardFailModel(func(dom int) { panic(boom{dom}) })
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run(nil)
		return nil
	}()
	if got != (boom{2}) {
		t.Fatalf("Run panicked with %v, want %v", got, boom{2})
	}
}

func TestShardDomainGoexitReachesCaller(t *testing.T) {
	// runtime.Goexit in a domain process (t.Fatal inside a body, say)
	// exits the goroutine that called Run.
	returned := make(chan bool)
	go func() { //bmcast:allow simdrift the goroutine under test must be exited by Goexit, which a test can only observe from outside it
		ok := false
		defer func() { returned <- ok }()
		shardFailModel(func(int) { runtime.Goexit() }).Run(nil)
		ok = true
	}()
	if <-returned {
		t.Fatal("Run returned normally after a Goexit")
	}
}

func TestShardScheduleBetweenRuns(t *testing.T) {
	// Work that reaches an idle domain from outside any window must fire
	// at its own instant: an event put straight onto the domain between
	// two runs, and a post made before the first run (the path a testbed
	// takes to start a process on a node domain).
	s := NewShardSet(1, 100*Microsecond)
	hub := s.NewDomain("hub")
	node := s.NewDomain("node")
	idle := s.NewDomain("idle")
	var got []string
	log := func(k *Kernel, what string) func() {
		return func() { got = append(got, fmt.Sprintf("%s %d", what, k.Now())) }
	}
	hub.At(Time(30*Microsecond), log(hub, "hub"))
	hub.Post(node, Time(20*Microsecond), log(node, "post"))
	s.RunUntil(Time(Millisecond), nil)
	if want := "[hub 30000 post 20000]"; fmt.Sprint(got) != want {
		t.Fatalf("first run fired %v, want %v", got, want)
	}
	hub.At(Time(5*Millisecond), log(hub, "hub"))
	idle.At(Time(2*Millisecond), log(idle, "direct"))
	s.RunUntil(Time(10*Millisecond), nil)
	if want := "[hub 30000 post 20000 direct 2000000 hub 5000000]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %v", got, want)
	}
}
