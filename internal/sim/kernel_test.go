package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := New(1)
	var order []int
	k.After(30*Millisecond, func() { order = append(order, 3) })
	k.After(10*Millisecond, func() { order = append(order, 1) })
	k.After(20*Millisecond, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if k.Now() != Time(30*Millisecond) {
		t.Fatalf("clock = %v, want 30ms", k.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(Second, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestEventCancel(t *testing.T) {
	k := New(1)
	fired := false
	e := k.After(Second, func() { fired = true })
	e.Cancel()
	k.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	// Cancel recycles the record at once: the next event reuses it, and a
	// second Cancel through the old handle must not touch that event.
	fresh := false
	k.After(Second, func() { fresh = true })
	e.Cancel()
	if e.When() != 0 {
		t.Fatal("canceled handle reports a scheduled instant")
	}
	k.Run()
	if !fresh {
		t.Fatal("repeated Cancel killed the event that reused the record")
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New(1)
	var hits []Time
	k.After(Second, func() {
		hits = append(hits, k.Now())
		k.After(Second, func() { hits = append(hits, k.Now()) })
	})
	k.Run()
	if len(hits) != 2 || hits[0] != Time(Second) || hits[1] != Time(2*Second) {
		t.Fatalf("nested events fired at %v", hits)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New(1)
	k.After(Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(0, func() {})
	})
	k.Run()
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		k.After(Duration(i)*Second, func() { count++ })
	}
	k.RunUntil(Time(5 * Second))
	if count != 5 {
		t.Fatalf("fired %d events by 5s, want 5", count)
	}
	if k.Now() != Time(5*Second) {
		t.Fatalf("clock = %v, want 5s", k.Now())
	}
	k.Run()
	if count != 10 {
		t.Fatalf("fired %d events total, want 10", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := New(1)
	k.RunUntil(Time(42 * Second))
	if k.Now() != Time(42*Second) {
		t.Fatalf("clock = %v, want 42s", k.Now())
	}
}

// A Stop fired mid-RunUntil must leave the clock at the last fired event,
// not warp it to the target instant: events scheduled before the target may
// still be pending, and a warped clock would put them in the past — the next
// RunUntil would panic popping them.
func TestRunUntilStopDoesNotWarpClock(t *testing.T) {
	k := New(1)
	count := 0
	k.After(1*Second, func() { k.Stop() })
	k.After(2*Second, func() { count++ })
	k.RunUntil(Time(Hour))
	if k.Now() != Time(Second) {
		t.Fatalf("clock = %v after mid-run Stop, want 1s", k.Now())
	}
	k.RunUntil(Time(Hour)) // must fire the 2s event, not panic
	if count != 1 {
		t.Fatalf("pending event did not fire after resume (count=%d)", count)
	}
	if k.Now() != Time(Hour) {
		t.Fatalf("clock = %v after clean RunUntil, want 1h", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		k.After(Duration(i)*Second, func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Fatalf("fired %d events before Stop, want 3", count)
	}
}

func TestPending(t *testing.T) {
	k := New(1)
	e1 := k.After(Second, func() {})
	k.After(2*Second, func() {})
	if got := k.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	e1.Cancel()
	if got := k.Pending(); got != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", got)
	}
}

// TestSchedulingZeroAllocAmortized pins the free-list contract: once the
// record pool and heap are warm, a schedule+fire cycle performs no heap
// allocations at all.
func TestSchedulingZeroAllocAmortized(t *testing.T) {
	k := New(1)
	n := 0
	fn := func() { n++ }
	for i := 0; i < 64; i++ { // warm the free list and heap capacity
		k.After(Duration(i)*Microsecond, fn)
	}
	k.Run()
	avg := testing.AllocsPerRun(1000, func() {
		k.After(Microsecond, fn)
		k.Run()
	})
	if avg != 0 {
		t.Fatalf("schedule+fire allocates %.2f objects/event, want 0", avg)
	}
}

// TestCancelRemovesEagerly exercises removal from interior heap positions:
// canceling must not leave tombstones behind, and the survivors must still
// fire in timestamp order.
func TestCancelRemovesEagerly(t *testing.T) {
	k := New(7)
	type ev struct {
		h     Handle
		at    Duration
		alive bool
	}
	var evs []*ev
	var fired []Duration
	for i := 0; i < 200; i++ {
		d := Duration(k.Rand().Intn(1000)) * Millisecond
		e := &ev{at: d, alive: true}
		e.h = k.After(d, func() { fired = append(fired, e.at) })
		evs = append(evs, e)
	}
	alive := 200
	for i, e := range evs {
		if i%3 == 0 {
			e.h.Cancel()
			e.alive = false
			alive--
		}
	}
	if got := k.Pending(); got != alive {
		t.Fatalf("Pending = %d after cancels, want %d (no tombstones)", got, alive)
	}
	k.Run()
	if len(fired) != alive {
		t.Fatalf("%d events fired, want %d", len(fired), alive)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events fired out of order at %d: %v < %v", i, fired[i], fired[i-1])
		}
	}
}

// TestStaleHandleIsInert pins the pooling safety contract: a handle held
// past its event's firing must be a no-op even after the kernel recycles
// the record for a new event.
func TestStaleHandleIsInert(t *testing.T) {
	k := New(1)
	stale := k.After(Millisecond, func() {})
	k.Run() // fires; record returns to the pool
	fired := false
	fresh := k.After(Millisecond, func() { fired = true }) // reuses the record
	stale.Cancel()
	if stale.When() != 0 {
		t.Fatal("stale handle reports a scheduled instant")
	}
	k.Run()
	if !fired {
		t.Fatal("stale Cancel killed an unrelated recycled event")
	}
	_ = fresh
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		k := New(99)
		var trace []int64
		for i := 0; i < 50; i++ {
			d := Duration(k.Rand().Intn(1000)) * Millisecond
			k.After(d, func() { trace = append(trace, int64(k.Now())) })
		}
		k.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{2 * Second, "2.000s"},
		{15 * Millisecond, "15.000ms"},
		{7 * Microsecond, "7.000µs"},
		{42, "42ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestRateDuration(t *testing.T) {
	// 100 MB at 100 MB/s takes one second.
	d := RateDuration(100<<20, 100*(1<<20))
	if d != Second {
		t.Fatalf("RateDuration = %v, want 1s", d)
	}
	if RateDuration(1000, 0) != 0 {
		t.Fatal("zero rate should yield zero duration")
	}
}

func TestTimeAddSubProperty(t *testing.T) {
	f := func(base int32, delta int32) bool {
		t0 := Time(int64(base) * int64(Millisecond))
		d := Duration(int64(delta) * int64(Millisecond))
		return t0.Add(d).Sub(t0) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRankedAheadOfOrdinary: a ranked event fires before every ordinary
// event at its instant, even ones scheduled before it, and ordinary events
// keep their FIFO order around it.
func TestRankedAheadOfOrdinary(t *testing.T) {
	k := New(1)
	var order []string
	at := Time(Second)
	k.At(at, func() { order = append(order, "a") })
	k.At(at, func() { order = append(order, "b") })
	k.AtRanked(at, k.NewRank(), func() {
		order = append(order, "ranked")
		if !k.Ranked() {
			t.Error("Ranked() is false inside a ranked event")
		}
	})
	k.At(at, func() {
		order = append(order, "c")
		if k.Ranked() {
			t.Error("Ranked() is true inside an ordinary event")
		}
	})
	k.Run()
	if got, want := strings.Join(order, " "), "ranked a b c"; got != want {
		t.Fatalf("fire order %q, want %q", got, want)
	}
}

// TestRankedRankOrder: ranked events at one instant fire in rank order,
// whatever order they were scheduled in, and a rank can be rescheduled
// once its event has fired.
func TestRankedRankOrder(t *testing.T) {
	k := New(1)
	r1, r2, r3 := k.NewRank(), k.NewRank(), k.NewRank()
	if !(r1 < r2 && r2 < r3) {
		t.Fatalf("ranks %d %d %d not increasing", r1, r2, r3)
	}
	var order []Rank
	at := Time(Millisecond)
	for _, r := range []Rank{r3, r1, r2} {
		r := r
		k.AtRanked(at, r, func() { order = append(order, r) })
	}
	k.Run()
	if fmt.Sprint(order) != fmt.Sprint([]Rank{r1, r2, r3}) {
		t.Fatalf("ranked fire order %v, want %v", order, []Rank{r1, r2, r3})
	}
	fired := 0
	var tick func()
	tick = func() {
		if fired++; fired < 3 {
			k.AtRanked(k.Now().Add(Millisecond), r2, tick)
		}
	}
	k.AtRanked(k.Now().Add(Millisecond), r2, tick)
	k.Run()
	if fired != 3 || k.Now() != Time(4*Millisecond) {
		t.Fatalf("rescheduled rank fired %d times, clock %v; want 3 at 4ms", fired, k.Now())
	}
}

// TestRankedAheadOfStreamHead: a stream entry keeps its ordinary sequence
// number, so a ranked event at the same instant fires first, and the
// ranked event draws no sequence number that would reorder the entries.
func TestRankedAheadOfStreamHead(t *testing.T) {
	k := New(1)
	var order []string
	s := NewStream(k, func(v string) { order = append(order, v) })
	at := Time(Second)
	s.At(at, "s1")
	k.At(at, func() { order = append(order, "a") })
	k.AtRanked(at, k.NewRank(), func() { order = append(order, "ranked") })
	s.At(at, "s2")
	k.Run()
	if got, want := strings.Join(order, " "), "ranked s1 a s2"; got != want {
		t.Fatalf("fire order %q, want %q", got, want)
	}
}

// TestRankedInShardDomains: ranks are per kernel, so every domain of a
// shard set hands out its own; a ranked event fires ahead of a
// cross-domain post delivered at its instant.
func TestRankedInShardDomains(t *testing.T) {
	s := NewShardSet(1, 10*Microsecond)
	a := s.NewDomain("a")
	b := s.NewDomain("b")
	ra, rb := a.NewRank(), b.NewRank()
	if ra != rb {
		t.Fatalf("domains' first ranks %d and %d differ", ra, rb)
	}
	var order []string
	at := Time(50 * Microsecond)
	a.At(Time(Microsecond), func() {
		a.Post(b, at, func() { order = append(order, "post") })
	})
	b.At(at, func() { order = append(order, "local") })
	b.AtRanked(at, rb, func() { order = append(order, "ranked-b") })
	a.AtRanked(at, ra, func() { order = append(order, "ranked-a") })
	s.Run(nil)
	// Domains run one after another within a window: a's events, then b's.
	if got, want := strings.Join(order, " "), "ranked-a ranked-b local post"; got != want {
		t.Fatalf("fire order %q, want %q", got, want)
	}
}

// TestFiredCountsEveryEvent: Fired counts ordinary, ranked and stream
// events once each as they fire, and not canceled ones.
func TestFiredCountsEveryEvent(t *testing.T) {
	k := New(1)
	s := NewStream(k, func(int) {})
	k.After(Second, func() {})
	k.After(Second, func() {}).Cancel()
	k.AtRanked(Time(Second), k.NewRank(), func() {})
	s.At(Time(Second), 1)
	s.At(Time(2*Second), 2)
	if k.Fired() != 0 {
		t.Fatalf("Fired = %d before Run", k.Fired())
	}
	k.Run()
	if k.Fired() != 4 {
		t.Fatalf("Fired = %d, want 4", k.Fired())
	}
}
