package ethernet

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

type collector struct {
	frames []*Frame
	times  []sim.Time
	k      *sim.Kernel
}

func (c *collector) Deliver(f *Frame) {
	c.frames = append(c.frames, f)
	c.times = append(c.times, c.k.Now())
}

func twoStations(k *sim.Kernel, p LinkParams) (*Switch, *Link, *Link, *collector, *collector) {
	sw := NewSwitch(k, "sw", 5*sim.Microsecond)
	la := sw.Connect(p)
	lb := sw.Connect(p)
	ca := &collector{k: k}
	cb := &collector{k: k}
	la.AttachA(ca)
	lb.AttachA(cb)
	return sw, la, lb, ca, cb
}

func TestDeliveryThroughSwitch(t *testing.T) {
	k := sim.New(1)
	_, la, _, _, cb := twoStations(k, GigabitJumbo())
	la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 1000})
	k.Run()
	if len(cb.frames) != 1 {
		t.Fatalf("station B received %d frames, want 1 (flooded unregistered dst)", len(cb.frames))
	}
}

// stations connects n stations to sw, station i registering MAC i+1, and
// returns their links and collectors.
func stations(k *sim.Kernel, sw *Switch, n int) ([]*Link, []*collector) {
	links := make([]*Link, n)
	cols := make([]*collector, n)
	for i := range links {
		links[i] = sw.Connect(GigabitJumbo(), MAC(i+1))
		cols[i] = &collector{k: k}
		links[i].AttachA(cols[i])
	}
	return links, cols
}

func TestSwitchRegisteredUnicastReachesOnlyItsPort(t *testing.T) {
	k := sim.New(1)
	links, cols := stations(k, NewSwitch(k, "sw", 0), 3)
	links[0].SendFromA(&Frame{Src: 1, Dst: 2, Size: 100})
	k.Run()
	if len(cols[1].frames) != 1 {
		t.Fatalf("station 2 received %d frames, want 1", len(cols[1].frames))
	}
	for _, i := range []int{0, 2} {
		if len(cols[i].frames) != 0 || links[i].b2a.delivered.Value() != 0 {
			t.Fatalf("station %d link carried %d frames toward it, want 0", i+1, links[i].b2a.delivered.Value())
		}
	}
}

func TestSwitchUnregisteredDestinationFloods(t *testing.T) {
	k := sim.New(1)
	links, cols := stations(k, NewSwitch(k, "sw", 0), 4)
	links[0].SendFromA(&Frame{Src: 1, Dst: 0xEE, Size: 100})
	links[1].SendFromA(&Frame{Src: 2, Dst: Broadcast, Size: 100})
	k.Run()
	// Each station gets the other's flood, never its own.
	want := []int{1, 1, 2, 2}
	for i, c := range cols {
		if len(c.frames) != want[i] {
			t.Fatalf("station %d received %d frames, want %d", i+1, len(c.frames), want[i])
		}
		for _, f := range c.frames {
			if f.Src == MAC(i+1) {
				t.Fatalf("station %d received its own flood", i+1)
			}
		}
	}
}

// countingOwner records every frame returned to it.
type countingOwner struct{ released map[*Frame]int }

func (o *countingOwner) ReleaseFrame(f *Frame) { o.released[f]++ }

// releaser is a station that consumes every frame it receives.
type releaser struct{ got int }

func (r *releaser) Deliver(f *Frame) {
	r.got++
	f.Release()
}

func TestSwitchHairpinDropped(t *testing.T) {
	k := sim.New(1)
	sw := NewSwitch(k, "sw", 0)
	la := sw.Connect(GigabitJumbo(), 1, 5) // two MACs behind one port
	lb := sw.Connect(GigabitJumbo(), 2)
	ra, rb := &releaser{}, &releaser{}
	la.AttachA(ra)
	lb.AttachA(rb)
	o := &countingOwner{released: map[*Frame]int{}}
	f := &Frame{Src: 1, Dst: 5, Size: 100}
	f.InitRef(o)
	la.SendFromA(f)
	k.Run()
	if ra.got != 0 || rb.got != 0 || lb.b2a.delivered.Value() != 0 {
		t.Fatalf("hairpin frame delivered (A %d, B %d)", ra.got, rb.got)
	}
	if o.released[f] != 1 {
		t.Fatalf("hairpin frame released %d times, want 1", o.released[f])
	}
}

func TestSwitchFloodReleasesEachFrameOnce(t *testing.T) {
	k := sim.New(1)
	sw := NewSwitch(k, "sw", 5*sim.Microsecond)
	const ports, frames = 4, 10
	links := make([]*Link, ports)
	rs := make([]*releaser, ports)
	for i := range links {
		links[i] = sw.Connect(GigabitJumbo(), MAC(i+1))
		rs[i] = &releaser{}
		links[i].AttachA(rs[i])
	}
	o := &countingOwner{released: map[*Frame]int{}}
	sent := make([]*Frame, frames)
	for i := range sent {
		sent[i] = &Frame{Src: 1, Dst: Broadcast, Size: 1000}
		sent[i].InitRef(o)
		links[0].SendFromA(sent[i])
	}
	k.Run()
	for i := 1; i < ports; i++ {
		if rs[i].got != frames {
			t.Fatalf("station %d received %d frames, want %d", i+1, rs[i].got, frames)
		}
	}
	if len(o.released) != frames {
		t.Fatalf("owner saw %d distinct frames, want %d", len(o.released), frames)
	}
	for _, f := range sent {
		if o.released[f] != 1 {
			t.Fatalf("frame released %d times, want exactly 1", o.released[f])
		}
	}
}

// relay is one station of the schedule test: it logs each arrival and
// forwards unicast frames to the next station until their hop budget runs
// out.
type relay struct {
	k    *sim.Kernel
	mac  MAC
	next MAC
	link *Link
	log  []string
}

func (r *relay) Deliver(f *Frame) {
	hops := f.Payload.(int)
	r.log = append(r.log, fmt.Sprintf("%dns %v->%v hops=%d", int64(r.k.Now()), f.Src, f.Dst, hops))
	if f.Dst == r.mac && hops > 0 {
		r.link.SendFromA(&Frame{Src: r.mac, Dst: r.next, Size: 1000 + int64(hops), Payload: hops - 1})
	}
}

// exchange runs a 3-station relay and broadcast exchange through one
// switch, with station i on kernels[i], and returns each station's arrival
// log.
func exchange(sw *Switch, kernels []*sim.Kernel, run func()) [][]string {
	rs := make([]*relay, len(kernels))
	for i, k := range kernels {
		mac := MAC(i + 1)
		rs[i] = &relay{k: k, mac: mac, next: MAC((i+1)%len(kernels) + 1)}
		rs[i].link = sw.ConnectOn(k, GigabitJumbo(), mac)
		rs[i].link.AttachA(rs[i])
	}
	for _, r := range rs {
		r.k.At(0, func() {
			r.link.SendFromA(&Frame{Src: r.mac, Dst: r.next, Size: 9000, Payload: 6})
			r.link.SendFromA(&Frame{Src: r.mac, Dst: Broadcast, Size: 64, Payload: 0})
		})
	}
	run()
	logs := make([][]string, len(rs))
	for i, r := range rs {
		logs[i] = r.log
	}
	return logs
}

func TestSwitchScheduleSameOnShardSet(t *testing.T) {
	const latency = 5 * sim.Microsecond
	k := sim.New(1)
	serial := exchange(NewSwitch(k, "sw", latency), []*sim.Kernel{k, k, k}, func() { k.Run() })

	// One domain per station; the window equals the switch latency, the
	// shortest cross-domain hop, so no arrival is clamped to a barrier.
	set := sim.NewShardSet(1, latency)
	doms := []*sim.Kernel{set.NewDomain("a"), set.NewDomain("b"), set.NewDomain("c")}
	sharded := exchange(NewSwitch(doms[0], "sw", latency), doms, func() { set.Run(nil) })

	for i := range serial {
		if len(serial[i]) == 0 {
			t.Fatalf("station %d received nothing", i+1)
		}
		if fmt.Sprint(serial[i]) != fmt.Sprint(sharded[i]) {
			t.Fatalf("station %d arrivals differ:\nstandalone %v\nshard set  %v", i+1, serial[i], sharded[i])
		}
	}
}

func TestSerializationTiming(t *testing.T) {
	// A 9000-byte frame on gigabit takes 72 µs to serialize per hop, plus
	// propagation and switch latency.
	k := sim.New(1)
	_, la, _, _, cb := twoStations(k, GigabitJumbo())
	la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 9000})
	k.Run()
	got := cb.times[0]
	want := sim.Time(2*72*sim.Microsecond + 2*2*sim.Microsecond + 5*sim.Microsecond)
	if got != want {
		t.Fatalf("delivery at %v, want %v", got, want)
	}
}

func TestBackToBackFramesSerialize(t *testing.T) {
	k := sim.New(1)
	_, la, _, _, cb := twoStations(k, GigabitJumbo())
	for i := 0; i < 3; i++ {
		la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 9000})
	}
	k.Run()
	if len(cb.times) != 3 {
		t.Fatalf("received %d frames", len(cb.times))
	}
	gap := cb.times[1].Sub(cb.times[0])
	if gap != 72*sim.Microsecond {
		t.Fatalf("inter-frame gap = %v, want 72µs (line rate)", gap)
	}
}

func TestMTUEnforced(t *testing.T) {
	k := sim.New(1)
	_, la, _, _, _ := twoStations(k, Gigabit())
	defer func() {
		if recover() == nil {
			t.Fatal("oversize frame did not panic")
		}
	}()
	la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 9000})
}

func TestLossInjection(t *testing.T) {
	k := sim.New(1)
	p := GigabitJumbo()
	p.LossRate = 0.5
	_, la, _, _, cb := twoStations(k, p)
	const n = 1000
	for i := 0; i < n; i++ {
		la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 1000})
	}
	k.Run()
	got := len(cb.frames)
	// Loss is applied per hop: two 50% links give ~25% end-to-end delivery.
	if got < 150 || got > 350 {
		t.Fatalf("with 50%% loss per hop, delivered %d of %d, want ~250", got, n)
	}
	if la.Dropped() == 0 {
		t.Fatal("Dropped counter not incremented")
	}
	if la.Dropped()+int64(got) > n { // some drops could be on the egress link
		t.Logf("ingress drops %d, delivered %d", la.Dropped(), got)
	}
}

func TestSetLossRate(t *testing.T) {
	k := sim.New(1)
	_, la, _, _, cb := twoStations(k, GigabitJumbo())
	la.SetLossRate(1.0)
	la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 100})
	k.Run()
	if len(cb.frames) != 0 {
		t.Fatal("frame delivered despite 100% loss")
	}
	la.SetLossRate(0)
	la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 100})
	k.Run()
	if len(cb.frames) != 1 {
		t.Fatal("frame lost despite 0% loss")
	}
}

func TestLinkDownAndUp(t *testing.T) {
	k := sim.New(1)
	_, la, _, _, cb := twoStations(k, GigabitJumbo())
	la.SetDown(DirBoth, true)
	if !la.Down(DirBoth) {
		t.Fatal("Down not reported after SetDown")
	}
	la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 100})
	k.Run()
	if len(cb.frames) != 0 {
		t.Fatal("frame delivered over a down link")
	}
	if la.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", la.Dropped())
	}
	la.SetDown(DirBoth, false)
	la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 100})
	k.Run()
	if len(cb.frames) != 1 {
		t.Fatal("frame lost after link came back up")
	}
}

func TestAsymmetricPartition(t *testing.T) {
	// Station→switch down, switch→station up: A's frames die but frames
	// toward A still arrive — the classic one-way partition.
	k := sim.New(1)
	_, la, lb, ca, cb := twoStations(k, GigabitJumbo())
	la.SetDown(DirA2B, true)
	la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 100})
	lb.SendFromA(&Frame{Src: 2, Dst: 1, Size: 100})
	k.Run()
	if len(cb.frames) != 0 {
		t.Fatal("frame crossed the partitioned direction")
	}
	if len(ca.frames) != 1 {
		t.Fatalf("reverse direction delivered %d frames, want 1", len(ca.frames))
	}
}

func TestCorruptionDiscardsAtReceiver(t *testing.T) {
	k := sim.New(1)
	_, la, _, _, cb := twoStations(k, GigabitJumbo())
	la.SetCorruptRate(DirA2B, 1.0)
	const n = 20
	for i := 0; i < n; i++ {
		la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 1000})
	}
	k.Run()
	if len(cb.frames) != 0 {
		t.Fatalf("%d corrupt frames delivered", len(cb.frames))
	}
	if la.Corrupted() != n {
		t.Fatalf("Corrupted = %d, want %d", la.Corrupted(), n)
	}
	if la.Dropped() != 0 {
		t.Fatal("corruption must be counted separately from loss")
	}
}

func TestDuplicationDeliversTwice(t *testing.T) {
	k := sim.New(1)
	_, la, _, _, cb := twoStations(k, GigabitJumbo())
	la.SetDuplicateRate(DirA2B, 1.0)
	la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 100})
	k.Run()
	// Duplication on the ingress hop: the switch forwards both copies.
	if len(cb.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2 (original + duplicate)", len(cb.frames))
	}
	if la.Duplicated() != 1 {
		t.Fatalf("Duplicated = %d, want 1", la.Duplicated())
	}
}

func TestReorderingOvertakesFrames(t *testing.T) {
	k := sim.New(1)
	_, la, _, _, cb := twoStations(k, GigabitJumbo())
	// Force the first frame to be held back; send a clean train behind it.
	la.SetReorderRate(DirA2B, 1.0)
	la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 9000, EtherType: 1})
	la.SetReorderRate(DirA2B, 0)
	for i := 0; i < 4; i++ {
		la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 9000, EtherType: 2})
	}
	k.Run()
	if len(cb.frames) != 5 {
		t.Fatalf("delivered %d frames, want 5", len(cb.frames))
	}
	if la.Reordered() != 1 {
		t.Fatalf("Reordered = %d, want 1", la.Reordered())
	}
	if cb.frames[0].EtherType == 1 {
		t.Fatal("held-back frame still arrived first; no reordering happened")
	}
}

func TestFaultDeterminism(t *testing.T) {
	// The same seed and the same impairment settings must deliver the same
	// frames at the same instants.
	run := func() []sim.Time {
		k := sim.New(99)
		p := GigabitJumbo()
		p.LossRate = 0.2
		_, la, _, _, cb := twoStations(k, p)
		la.SetCorruptRate(DirA2B, 0.1)
		la.SetDuplicateRate(DirA2B, 0.1)
		la.SetReorderRate(DirA2B, 0.1)
		for i := 0; i < 200; i++ {
			la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 1000})
		}
		k.Run()
		return cb.times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBidirectionalIndependence(t *testing.T) {
	// Full duplex: simultaneous transfers in both directions don't share
	// bandwidth.
	k := sim.New(1)
	_, la, lb, ca, cb := twoStations(k, GigabitJumbo())
	start := k.Now()
	for i := 0; i < 10; i++ {
		la.SendFromA(&Frame{Src: 1, Dst: 2, Size: 9000})
		lb.SendFromA(&Frame{Src: 2, Dst: 1, Size: 9000})
	}
	k.Run()
	elapsed := k.Now().Sub(start)
	// 10 jumbo frames at line rate ≈ 720 µs + small constants. If the
	// directions shared bandwidth this would be ~1.44 ms.
	if elapsed > sim.Millisecond {
		t.Fatalf("bidirectional transfer took %v; directions appear coupled", elapsed)
	}
	if len(ca.frames) != 10 || len(cb.frames) != 10 {
		t.Fatalf("delivered %d/%d frames", len(ca.frames), len(cb.frames))
	}
}
