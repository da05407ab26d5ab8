package vblade_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/aoe"
	"repro/internal/ethernet"
	"repro/internal/hw/disk"
	"repro/internal/hw/nic"
	"repro/internal/sim"
	"repro/internal/vblade"
)

// rig wires one client and one server through a jumbo-frame gigabit switch.
type rig struct {
	k      *sim.Kernel
	server *vblade.Server
	init   *aoe.Initiator
	client *nic.NIC
	clLink *ethernet.Link
	svLink *ethernet.Link
}

func newRig(t *testing.T, img *disk.Image, threads int) *rig {
	t.Helper()
	k := sim.New(42)
	sw := ethernet.NewSwitch(k, "sw", 5*sim.Microsecond)
	clLink := sw.Connect(ethernet.GigabitJumbo())
	svLink := sw.Connect(ethernet.GigabitJumbo())
	client := nic.New(k, "cl0", nic.IntelPro1000, 0x02, clLink)
	servNIC := nic.New(k, "sv0", nic.IntelX540, 0x01, svLink)
	srv := vblade.NewServer(k, servNIC, threads)
	srv.AddTarget(0, 0, img)
	srv.Start()
	in := aoe.NewInitiator(k, client, 0x01, 0, 0)
	return &rig{k: k, server: srv, init: in, client: client, clLink: clLink, svLink: svLink}
}

func TestReadRoundTrip(t *testing.T) {
	img := disk.NewSynthImage("ubuntu", 8<<20, 7)
	r := newRig(t, img, 4)
	var got, want []byte
	r.k.Spawn("client", func(p *sim.Proc) {
		pl, err := r.init.Read(p, 100, 64)
		if err != nil {
			t.Error(err)
			return
		}
		got = pl.Bytes()
	})
	r.k.Run()
	want = make([]byte, 64*disk.SectorSize)
	img.ReadAt(100, want)
	if !bytes.Equal(got, want) {
		t.Fatal("AoE read returned wrong content")
	}
	if r.init.Requests.Value() != 1 {
		t.Fatalf("Requests = %d", r.init.Requests.Value())
	}
}

func TestLargeReadFragments(t *testing.T) {
	img := disk.NewSynthImage("ubuntu", 8<<20, 7)
	r := newRig(t, img, 4)
	const count = 2048 // 1 MB: 121 jumbo fragments
	r.k.Spawn("client", func(p *sim.Proc) {
		pl, err := r.init.Read(p, 0, count)
		if err != nil {
			t.Error(err)
			return
		}
		if pl.Count != count {
			t.Errorf("payload count = %d", pl.Count)
		}
		// Symbolic reassembly: all fragments share the image source.
		if pl.Source != disk.SectorSource(img) {
			t.Errorf("payload source = %s, want image", pl.Source.Name())
		}
	})
	r.k.Run()
	if got := r.init.FragmentsRecvd.Value(); got != 121 {
		t.Fatalf("fragments received = %d, want 121", got)
	}
}

func TestWriteThenRead(t *testing.T) {
	img := disk.NewSynthImage("ubuntu", 8<<20, 7)
	r := newRig(t, img, 2)
	data := bytes.Repeat([]byte{0xCD}, 3*disk.SectorSize)
	r.k.Spawn("client", func(p *sim.Proc) {
		src := disk.NewBuffer(50, data, "w")
		if err := r.init.Write(p, disk.Payload{LBA: 50, Count: 3, Source: src}); err != nil {
			t.Error(err)
			return
		}
		pl, err := r.init.Read(p, 50, 3)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(pl.Bytes(), data) {
			t.Error("read after write returned stale content")
		}
	})
	r.k.Run()
	if r.server.BytesStored.Value() != 3*disk.SectorSize {
		t.Fatalf("BytesStored = %d", r.server.BytesStored.Value())
	}
}

func TestOutOfRangeReadFails(t *testing.T) {
	img := disk.NewSynthImage("tiny", 1<<20, 7) // 2048 sectors
	r := newRig(t, img, 1)
	r.k.Spawn("client", func(p *sim.Proc) {
		if _, err := r.init.Read(p, 4000, 10); err == nil {
			t.Error("out-of-range read succeeded")
		}
	})
	r.k.Run()
}

func TestRetransmissionUnderLoss(t *testing.T) {
	img := disk.NewSynthImage("ubuntu", 8<<20, 7)
	r := newRig(t, img, 4)
	r.clLink.SetLossRate(0.05)
	r.svLink.SetLossRate(0.05)
	var got []byte
	r.k.Spawn("client", func(p *sim.Proc) {
		pl, err := r.init.Read(p, 0, 1024)
		if err != nil {
			t.Error(err)
			return
		}
		got = pl.Bytes()
	})
	r.k.Run()
	want := make([]byte, 1024*disk.SectorSize)
	img.ReadAt(0, want)
	if !bytes.Equal(got, want) {
		t.Fatal("content corrupted by retransmission")
	}
	if r.init.Retransmits.Value() == 0 {
		t.Fatal("no retransmissions despite loss")
	}
}

func TestRequestFailsUnderTotalLoss(t *testing.T) {
	img := disk.NewSynthImage("ubuntu", 1<<20, 7)
	r := newRig(t, img, 1)
	r.svLink.SetLossRate(1.0) // nothing reaches the server
	r.k.Spawn("client", func(p *sim.Proc) {
		if _, err := r.init.Read(p, 0, 8); err == nil {
			t.Error("read succeeded with a dead link")
		}
	})
	r.k.Run()
}

func TestSingleThreadSlowerThanPool(t *testing.T) {
	// The paper's motivation for the thread pool: a single-threaded
	// vblade bottlenecks large transfers.
	elapsed := func(threads int) sim.Duration {
		img := disk.NewSynthImage("ubuntu", 64<<20, 7)
		r := newRig(t, img, threads)
		var d sim.Duration
		r.k.Spawn("client", func(p *sim.Proc) {
			start := p.Now()
			for i := int64(0); i < 32; i++ { // 32 MB total
				if _, err := r.init.Read(p, i*2048, 2048); err != nil {
					t.Error(err)
					return
				}
			}
			d = p.Now().Sub(start)
		})
		r.k.Run()
		return d
	}
	single := elapsed(1)
	pooled := elapsed(8)
	if single <= pooled {
		t.Fatalf("single-thread %v not slower than pool %v", single, pooled)
	}
	// Pooled server should get close to gigabit line rate for 32 MB:
	// ≥80 MB/s. Single-threaded should be visibly below it.
	rate := func(d sim.Duration) float64 { return 32 * 1e6 * 1.048576 / d.Seconds() / 1e6 }
	if got := rate(pooled); got < 80 {
		t.Fatalf("pooled rate = %.1f MB/s, want >= 80", got)
	}
	t.Logf("single=%.1f MB/s pooled=%.1f MB/s", rate(single), rate(pooled))
}

func TestUnknownTargetDropped(t *testing.T) {
	img := disk.NewSynthImage("ubuntu", 1<<20, 7)
	r := newRig(t, img, 1)
	bad := aoe.NewInitiator(r.k, r.client, 0x01, 9, 9) // nonexistent shelf
	bad.MaxRetries = 1
	r.k.Spawn("client", func(p *sim.Proc) {
		if _, err := bad.Read(p, 0, 1); err == nil {
			t.Error("read from unknown target succeeded")
		}
	})
	r.k.Run()
	if r.server.UnknownDrops.Value() == 0 {
		t.Fatal("UnknownDrops not counted")
	}
}

func TestRTTEstimateReasonable(t *testing.T) {
	img := disk.NewSynthImage("ubuntu", 8<<20, 7)
	r := newRig(t, img, 4)
	r.k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if _, err := r.init.Read(p, int64(i)*17, 17); err != nil {
				t.Error(err)
				return
			}
		}
	})
	r.k.Run()
	rtt := r.init.RTT()
	// One fragment round trip: ~150µs serialization + service. The EWMA
	// should have converged well below the 2ms initial value.
	if rtt > sim.Millisecond || rtt < 50*sim.Microsecond {
		t.Fatalf("RTT estimate = %v, want ~100-600µs", rtt)
	}
}

func TestStopMidFlightDoesNotPanic(t *testing.T) {
	// Closing the queue with requests pending (queued, mid-service, and
	// still on the wire) must not panic; the in-flight initiator times out,
	// retransmits into the void, and fails cleanly.
	img := disk.NewSynthImage("ubuntu", 8<<20, 7)
	r := newRig(t, img, 1)
	r.init.MaxRetries = 4
	r.k.After(2*sim.Millisecond, r.server.Stop) // mid-stream
	var err error
	var completed int
	r.k.Spawn("client", func(p *sim.Proc) {
		// A stream of requests: the ones queued before Stop drain, the ones
		// arriving after the close get dropped and must fail by timeout.
		for i := int64(0); i < 16; i++ {
			if _, err = r.init.Read(p, i*512, 512); err != nil {
				return
			}
			completed++
		}
	})
	r.k.Run()
	if err == nil {
		t.Fatal("read against a stopped server succeeded")
	}
	if completed == 0 {
		t.Fatal("no request completed before the stop; scenario did not exercise mid-flight close")
	}
	if r.server.UnknownDrops.Value() == 0 {
		t.Fatal("frames arriving after Stop were not dropped/counted")
	}
}

func TestCrashLosesWriteState(t *testing.T) {
	img := disk.NewSynthImage("ubuntu", 1<<20, 7)
	r := newRig(t, img, 2)
	data := bytes.Repeat([]byte{0xEE}, 2*disk.SectorSize)
	want := make([]byte, 2*disk.SectorSize)
	img.ReadAt(300, want)
	var got []byte
	r.k.Spawn("client", func(p *sim.Proc) {
		src := disk.NewBuffer(300, data, "w")
		if err := r.init.Write(p, disk.Payload{LBA: 300, Count: 2, Source: src}); err != nil {
			t.Error(err)
			return
		}
		r.server.Crash()
		r.server.Restart()
		pl, err := r.init.Read(p, 300, 2)
		if err != nil {
			t.Error(err)
			return
		}
		got = pl.Bytes()
	})
	r.k.Run()
	if bytes.Equal(got, data) {
		t.Fatal("write survived a crash; page-cache state should be lost")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("restarted server does not serve the pristine image")
	}
	if r.server.Crashes.Value() != 1 {
		t.Fatalf("Crashes = %d, want 1", r.server.Crashes.Value())
	}
}

func TestCrashMidTransferFailsOverToSecondary(t *testing.T) {
	// Two vblade servers export the same image; the primary crashes
	// mid-read and the initiator completes via the secondary, byte-exact.
	img := disk.NewSynthImage("ubuntu", 8<<20, 7)
	k := sim.New(42)
	sw := ethernet.NewSwitch(k, "sw", 5*sim.Microsecond)
	clLink := sw.Connect(ethernet.GigabitJumbo(), 0x02)
	client := nic.New(k, "cl0", nic.IntelPro1000, 0x02, clLink)
	newServer := func(name string, mac ethernet.MAC) *vblade.Server {
		l := sw.Connect(ethernet.GigabitJumbo(), mac)
		n := nic.New(k, name, nic.IntelX540, mac, l)
		s := vblade.NewServer(k, n, 4)
		s.AddTarget(0, 0, img)
		s.Start()
		return s
	}
	primary := newServer("sv0", 0x01)
	newServer("sv1", 0x03)
	in := aoe.NewInitiator(k, client, 0x01, 0, 0)
	in.AddTarget(0x03, 0, 0)
	in.MaxRetries = 4
	k.After(3*sim.Millisecond, primary.Crash)
	var got []byte
	k.Spawn("client", func(p *sim.Proc) {
		pl, err := in.Read(p, 0, 2048)
		if err != nil {
			t.Error(err)
			return
		}
		got = pl.Bytes()
	})
	k.Run()
	want := make([]byte, 2048*disk.SectorSize)
	img.ReadAt(0, want)
	if !bytes.Equal(got, want) {
		t.Fatal("failover read returned wrong content")
	}
	if in.Failovers.Value() != 1 {
		t.Fatalf("Failovers = %d, want 1", in.Failovers.Value())
	}
	if !primary.Crashed() {
		t.Fatal("primary not marked crashed")
	}
}

func TestMediaErrorWindow(t *testing.T) {
	img := disk.NewSynthImage("ubuntu", 1<<20, 7)
	r := newRig(t, img, 2)
	r.init.MaxRetries = 2
	// Sectors [100,200) are unreadable until t=1s.
	r.server.Target(0, 0).AddMediaError(100, 100, sim.Time(sim.Second))
	var early, late error
	r.k.Spawn("client", func(p *sim.Proc) {
		_, early = r.init.Read(p, 120, 8) // inside the window
		p.Sleep(sim.Second)
		_, late = r.init.Read(p, 120, 8) // window expired
	})
	r.k.Run()
	if early == nil {
		t.Fatal("read inside the media-error window succeeded")
	}
	if late != nil {
		t.Fatalf("read after the window expired failed: %v", late)
	}
	if r.server.MediaErrors.Value() == 0 {
		t.Fatal("MediaErrors not counted")
	}
}

// TestServeNoProcsNoAllocs pins the cost of the event-driven server: a
// started server, with its cache on or off, spawns and parks no process,
// and once warm a read round trip through it allocates nothing.
func TestServeNoProcsNoAllocs(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			k := sim.New(1)
			sw := ethernet.NewSwitch(k, "sw", 5*sim.Microsecond)
			cl := nic.New(k, "cl", nic.IntelPro1000, 2, sw.Connect(ethernet.GigabitJumbo()))
			sv := nic.New(k, "sv", nic.IntelX540, 1, sw.Connect(ethernet.GigabitJumbo()))
			var spawns, parks int
			k.SetProcHook(func(_ sim.Time, ev sim.ProcEvent, name string) {
				if name == "client" {
					return
				}
				switch ev {
				case sim.ProcSpawn:
					spawns++
				case sim.ProcPark:
					parks++
				}
			})
			srv := vblade.NewServer(k, sv, 8)
			srv.AddTarget(0, 0, disk.NewSynthImage("img", 8<<20, 7))
			if cached {
				srv.EnableCache(4<<20, 64)
			}
			srv.Start()
			in := aoe.NewInitiator(k, cl, 1, 0, 0)
			reqs := sim.NewQueue[int64](k, "req")
			k.Spawn("client", func(p *sim.Proc) {
				for {
					lba, ok := reqs.Pop(p)
					if !ok {
						return
					}
					if _, err := in.Read(p, lba, 34); err != nil { // two fragments
						t.Error(err)
						return
					}
				}
			})
			k.Run()

			lba := int64(0)
			roundTrip := func() {
				reqs.Push(lba)
				lba = (lba + 64) % 4096 // 64 extents: all resident once warm
				k.Run()
			}
			for i := 0; i < 128; i++ {
				roundTrip()
			}
			if avg := testing.AllocsPerRun(256, roundTrip); avg != 0 {
				t.Errorf("a warm read round trip allocates %.2f objects, want 0", avg)
			}
			if spawns != 0 || parks != 0 {
				t.Errorf("server spawned %d and parked %d processes, want 0 and 0", spawns, parks)
			}
			if got := srv.Requests.Value(); got < 2*(128+256) {
				t.Errorf("server saw %d requests, want ≥ %d", got, 2*(128+256))
			}
			if cached && srv.CacheMisses.Value() != 64 {
				t.Errorf("cache misses = %d, want 64 (one per extent)", srv.CacheMisses.Value())
			}
		})
	}
}
