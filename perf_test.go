package bmcast

// Allocation regression tests for the hot data paths. These pin the
// free-list/pool work in internal/sim and internal/aoe: if a future change
// reintroduces per-event or per-request garbage, these fail long before a
// profile would be taken. The kernel's own zero-alloc contract is pinned in
// internal/sim; here we hold the whole client↔server AoE stack to a budget.

import (
	"testing"

	"repro/internal/aoe"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/guest"
	"repro/internal/hw/disk"
	"repro/internal/hw/nic"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/vblade"
)

// TestAoEReadRoundTripAllocs drives single-fragment reads through the
// initiator, switch, and vblade server, and bounds the steady-state
// allocations of one complete round trip. The budget has headroom over the
// measured value (which includes signal waiters and wire frames); the
// pre-pooling implementation sat several times higher.
func TestAoEReadRoundTripAllocs(t *testing.T) {
	k := sim.New(1)
	sw := ethernet.NewSwitch(k, "sw", 5*sim.Microsecond)
	cl := nic.New(k, "cl", nic.IntelPro1000, 2, sw.Connect(ethernet.GigabitJumbo()))
	sv := nic.New(k, "sv", nic.IntelX540, 1, sw.Connect(ethernet.GigabitJumbo()))
	img := disk.NewSynthImage("img", 64<<20, 7)
	srv := vblade.NewServer(k, sv, 2)
	srv.AddTarget(0, 0, img)
	srv.Start()
	in := aoe.NewInitiator(k, cl, 1, 0, 0)

	reqs := sim.NewQueue[int64](k, "req")
	k.Spawn("client", func(p *sim.Proc) {
		for {
			lba, ok := reqs.Pop(p)
			if !ok {
				return
			}
			if _, err := in.Read(p, lba, 8); err != nil {
				t.Error(err)
				return
			}
		}
	})
	k.Run() // client parks on the empty queue

	lba := int64(0)
	roundTrip := func() {
		reqs.Push(lba)
		lba = (lba + 8) % (1 << 16)
		k.Run()
	}
	for i := 0; i < 64; i++ { // warm the request pool, free lists, rings
		roundTrip()
	}
	avg := testing.AllocsPerRun(256, roundTrip)

	const budget = 40
	if avg > budget {
		t.Fatalf("one AoE read round trip allocates %.1f objects, budget %d", avg, budget)
	}
	t.Logf("AoE read round trip: %.1f allocs (budget %d)", avg, budget)
}

// TestMediatedReadRedirectAllocs bounds the full copy-on-read redirect: a
// guest read of an unfilled range travels through the storage mediator, the
// VMM, AoE (pooled frames end to end), the vblade server, and the local
// write-through. This is the fleet fast path's per-miss cost; the budget
// matches the AoE round trip's and the measured value sits far below it.
func TestMediatedReadRedirectAllocs(t *testing.T) {
	cfg := testbed.DefaultConfig()
	cfg.ImageBytes = 8 << 30
	tb := testbed.New(cfg)
	n := tb.AddNode(cfg)
	n.M.Firmware.InitTime = sim.Second
	vcfg := core.DefaultConfig()
	vcfg.WriteInterval = sim.Hour // keep the background copy out of the way
	bp := guest.DefaultBootProfile()
	bp.TotalBytes = 1 << 20
	bp.CPUTime = 100 * sim.Millisecond
	bp.SpanSectors = 1 << 20
	tb.K.Spawn("prep", func(p *sim.Proc) {
		if _, err := tb.DeployBMcast(p, n, vcfg, bp); err != nil {
			t.Error(err)
		}
		tb.K.Stop()
	})
	tb.K.Run()
	if t.Failed() {
		t.FailNow()
	}

	reqs := sim.NewQueue[int64](tb.K, "req")
	completed := 0
	tb.K.Spawn("reader", func(p *sim.Proc) {
		for {
			lba, ok := reqs.Pop(p)
			if !ok {
				return
			}
			if _, err := n.OS.ReadSectors(p, lba, 8, true); err != nil {
				t.Error(err)
				return
			}
			completed++
		}
	})

	// Each redirect targets a fresh unfilled stripe well past everything the
	// abbreviated boot touched, so every read is a genuine miss.
	lba := int64(1 << 21)
	want := 0
	redirect := func() {
		reqs.Push(lba)
		lba += 8
		want++
		for completed < want && tb.K.Pending() > 0 {
			tb.K.RunUntil(tb.K.Now().Add(sim.Millisecond))
		}
	}
	for i := 0; i < 64; i++ { // warm pools, free lists, rings, store
		redirect()
	}
	avg := testing.AllocsPerRun(256, redirect)

	const budget = 40
	if avg > budget {
		t.Fatalf("one mediated read redirect allocates %.1f objects, budget %d", avg, budget)
	}
	t.Logf("mediated read redirect: %.1f allocs (budget %d)", avg, budget)
}

// fanIn is eight stations sending bursts of pooled jumbo frames through
// one switch to a ninth, the shape of a fleet's requests converging on its
// storage server: the egress link serializes one frame at a time, so most
// of a burst queues on it.
type fanIn struct {
	k        *sim.Kernel
	senders  []*ethernet.Link
	free     []*ethernet.Frame
	got      int
	maxQueue int // most events pending at any arrival
}

const fanInSenders, fanInBurst = 8, 40 // 320 frames per burst

func newFanIn() *fanIn {
	k := sim.New(1)
	sw := ethernet.NewSwitch(k, "sw", 5*sim.Microsecond)
	fi := &fanIn{k: k}
	for i := 0; i < fanInSenders; i++ {
		fi.senders = append(fi.senders, sw.Connect(ethernet.GigabitJumbo(), ethernet.MAC(i+1)))
		fi.senders[i].AttachA(fi)
	}
	sw.Connect(ethernet.GigabitJumbo(), 0x99).AttachA(fi)
	return fi
}

// Deliver consumes a frame at the receiving station.
func (fi *fanIn) Deliver(f *ethernet.Frame) {
	fi.got++
	fi.maxQueue = max(fi.maxQueue, fi.k.Pending())
	f.Release()
}

// ReleaseFrame returns a consumed frame to the senders' pool.
func (fi *fanIn) ReleaseFrame(f *ethernet.Frame) { fi.free = append(fi.free, f) }

// burst sends fanInBurst frames from every sender and runs the kernel
// until the last one is delivered.
func (fi *fanIn) burst() {
	for i := 0; i < fanInBurst; i++ {
		for s, l := range fi.senders {
			var f *ethernet.Frame
			if n := len(fi.free) - 1; n >= 0 {
				f, fi.free = fi.free[n], fi.free[:n]
			} else {
				f = &ethernet.Frame{}
			}
			*f = ethernet.Frame{Src: ethernet.MAC(s + 1), Dst: 0x99, Size: 9000}
			f.InitRef(fi)
			l.SendFromA(f)
		}
	}
	fi.k.Run()
}

// TestSwitchFanInAllocs pins the Ethernet hop's steady state: once its
// pools are warm, a fan-in burst that queues hundreds of frames on one
// link allocates nothing per frame.
func TestSwitchFanInAllocs(t *testing.T) {
	fi := newFanIn()
	fi.burst()
	avg := testing.AllocsPerRun(20, func() {
		got := fi.got
		fi.burst()
		if fi.got-got != fanInSenders*fanInBurst {
			t.Fatalf("delivered %d frames, want %d", fi.got-got, fanInSenders*fanInBurst)
		}
	})
	if fi.maxQueue < 256 {
		t.Fatalf("at most %d events pending at an arrival, want the burst to queue at least 256", fi.maxQueue)
	}
	if avg != 0 {
		t.Fatalf("a fan-in burst of %d frames allocates %v objects, want 0", fanInSenders*fanInBurst, avg)
	}
}
