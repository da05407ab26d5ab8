package mediator_test

import (
	"testing"

	"repro/internal/aoe"
	"repro/internal/ethernet"
	"repro/internal/guest"
	"repro/internal/hw/disk"
	hwio "repro/internal/hw/io"
	"repro/internal/hw/nic"
	"repro/internal/machine"
	"repro/internal/mediator"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vblade"
)

// echoPeer answers every non-AoE frame it receives.
type echoPeer struct {
	n       *nic.NIC
	Echoed  metrics.Counter
	replyTo ethernet.MAC
}

func newEchoPeer(k *sim.Kernel, mac ethernet.MAC, link *ethernet.Link) *echoPeer {
	e := &echoPeer{}
	e.n = nic.New(k, "peer", nic.RealtekRTL816x, mac, link)
	e.n.SetOnReceive(func(f *ethernet.Frame) {
		e.Echoed.Inc()
		e.n.Send(&ethernet.Frame{Dst: f.Src, EtherType: f.EtherType, Payload: f.Payload, Size: f.Size})
	})
	return e
}

// snicRig wires one machine whose single NIC is shared between the guest
// (ring driver) and the VMM (AoE initiator) via the shared-NIC mediator,
// plus a vblade server and an echo peer on the same switch.
type snicRig struct {
	k      *sim.Kernel
	m      *machine.Machine
	ring   *nic.RingNIC
	med    *mediator.SharedNIC
	drv    *guest.NetDriver
	init   *aoe.Initiator
	server *vblade.Server
	peer   *echoPeer
	img    *disk.Image
}

func newSNICRig(t *testing.T) *snicRig {
	t.Helper()
	k := sim.New(11)
	sw := ethernet.NewSwitch(k, "sw", 5*sim.Microsecond)

	cfg := machine.RX200S6("m0")
	cfg.MemBytes = 256 << 20
	m := machine.New(k, cfg)
	link := sw.Connect(ethernet.GigabitJumbo(), 0x20)
	base := m.AttachNIC(nic.IntelPro1000, 0x20, link)
	irq := hwio.NewIRQ(k, "nic")
	ring := nic.NewRingNIC(k, base, m.Mem, irq)
	regName := ring.RegisterRegion(m.IO)

	// Server and echo peer.
	servNIC := nic.New(k, "srv", nic.IntelX540, 0x01, sw.Connect(ethernet.GigabitJumbo(), 0x01))
	img := disk.NewSynthImage("img", 64<<20, 3)
	srv := vblade.NewServer(k, servNIC, 4)
	srv.AddTarget(0, 0, img)
	srv.Start()
	peer := newEchoPeer(k, 0x99, sw.Connect(ethernet.GigabitJumbo(), 0x99))

	region := m.Firmware.ReserveForVMM(16 << 20)
	med := mediator.NewSharedNIC(m, ring, regName, region)
	med.Attach()
	// The VMM's polling thread drains the shadow RX ring.
	k.Spawn("snic.poll", func(p *sim.Proc) {
		for {
			med.Poll()
			p.Sleep(100 * sim.Microsecond)
		}
	})

	drv := guest.NewNetDriver(m, ring, irq)
	in := aoe.NewInitiator(k, med, 0x01, 0, 0)
	return &snicRig{k: k, m: m, ring: ring, med: med, drv: drv, init: in, server: srv, peer: peer, img: img}
}

func TestSharedNICGuestTraffic(t *testing.T) {
	r := newSNICRig(t)
	got := 0
	r.k.Spawn("guest", func(p *sim.Proc) {
		if err := r.drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 5; i++ {
			r.drv.Send(p, &ethernet.Frame{Dst: 0x99, EtherType: 0x0800, Size: 1200, Payload: i})
			f, err := r.drv.Recv(p, 100*sim.Millisecond)
			if err != nil {
				t.Error(err)
				return
			}
			if f.Payload.(int) != i {
				t.Errorf("echo %d returned payload %v", i, f.Payload)
				return
			}
			got++
		}
		r.k.Stop()
	})
	r.k.Run()
	if got != 5 {
		t.Fatalf("echoed %d of 5 frames", got)
	}
	if r.med.GuestTxFrames.Value() != 5 || r.med.GuestRxFrames.Value() != 5 {
		t.Fatalf("mediator counted tx=%d rx=%d", r.med.GuestTxFrames.Value(), r.med.GuestRxFrames.Value())
	}
	if r.med.Traps.Value() == 0 {
		t.Fatal("guest ring accesses did not trap")
	}
}

func TestSharedNICVMMTraffic(t *testing.T) {
	r := newSNICRig(t)
	r.k.Spawn("vmm", func(p *sim.Proc) {
		pl, err := r.init.Read(p, 100, 64)
		if err != nil {
			t.Error(err)
			return
		}
		want := r.img.Payload(100, 64)
		if string(pl.Bytes()) != string(want.Bytes()) {
			t.Error("AoE over shared NIC returned wrong content")
		}
		r.k.Stop()
	})
	r.k.Run()
	if r.med.VMMRxFrames.Value() == 0 || r.med.VMMTxFrames.Value() == 0 {
		t.Fatal("VMM frames did not flow through the mediator")
	}
}

// TestSharedNICPolledVMM: the VMM's initiator in polled mode over the
// shared NIC. Demuxed AoE frames queue for it and arm its tick through
// the mediator's arrival hook.
func TestSharedNICPolledVMM(t *testing.T) {
	r := newSNICRig(t)
	r.init.SetPolled(func() sim.Duration { return 50 * sim.Microsecond })
	done := false
	r.k.Spawn("vmm", func(p *sim.Proc) {
		pl, err := r.init.Read(p, 100, 64)
		if err != nil {
			t.Error(err)
			return
		}
		if string(pl.Bytes()) != string(r.img.Payload(100, 64).Bytes()) {
			t.Error("polled AoE over shared NIC returned wrong content")
		}
		done = true
	})
	r.k.RunUntil(sim.Time(sim.Second))
	if !done {
		t.Fatal("polled read over the shared NIC did not complete")
	}
	if r.med.RxPending() != 0 {
		t.Fatalf("%d AoE frames left queued", r.med.RxPending())
	}
}

func TestSharedNICInterleaving(t *testing.T) {
	// Guest echo traffic and VMM bulk AoE reads run concurrently over
	// the one NIC; both must complete, and AoE frames must never reach
	// the guest ring.
	r := newSNICRig(t)
	guestDone, vmmDone := false, false
	r.k.Spawn("guest", func(p *sim.Proc) {
		if err := r.drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 20; i++ {
			r.drv.Send(p, &ethernet.Frame{Dst: 0x99, EtherType: 0x0800, Size: 1500, Payload: i})
			if _, err := r.drv.Recv(p, 500*sim.Millisecond); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(2 * sim.Millisecond)
		}
		guestDone = true
	})
	r.k.Spawn("vmm", func(p *sim.Proc) {
		for i := int64(0); i < 16; i++ { // 16 MB of bulk reads
			if _, err := r.init.Read(p, i*2048, 2048); err != nil {
				t.Error(err)
				return
			}
		}
		vmmDone = true
	})
	r.k.RunUntil(sim.Time(10 * sim.Second))
	if !guestDone || !vmmDone {
		t.Fatalf("guest=%v vmm=%v did not finish", guestDone, vmmDone)
	}
	if r.med.GuestRxFrames.Value() != 20 {
		t.Fatalf("guest received %d frames, want 20 (AoE leaked into the guest ring?)",
			r.med.GuestRxFrames.Value())
	}
}

// TestSharedNICLatencyPenalty quantifies the paper's §6 argument for a
// dedicated NIC: guest round-trip latency through the mediator under
// concurrent VMM bulk traffic is visibly worse than over a dedicated NIC.
func TestSharedNICLatencyPenalty(t *testing.T) {
	// Shared: RTT while the VMM streams.
	r := newSNICRig(t)
	var sharedRTT sim.Duration
	r.k.Spawn("vmm", func(p *sim.Proc) {
		for i := int64(0); ; i++ {
			if _, err := r.init.Read(p, (i*2048)%65536, 2048); err != nil {
				return
			}
		}
	})
	r.k.Spawn("guest", func(p *sim.Proc) {
		if err := r.drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		var total sim.Duration
		const n = 20
		for i := 0; i < n; i++ {
			start := p.Now()
			r.drv.Send(p, &ethernet.Frame{Dst: 0x99, EtherType: 0x0800, Size: 256, Payload: i})
			if _, err := r.drv.Recv(p, sim.Second); err != nil {
				t.Error(err)
				return
			}
			total += p.Now().Sub(start)
			p.Sleep(5 * sim.Millisecond)
		}
		sharedRTT = total / n
		r.k.Stop()
	})
	r.k.RunUntil(sim.Time(30 * sim.Second))

	// Dedicated: same echo over a NIC the guest owns outright.
	k := sim.New(11)
	sw := ethernet.NewSwitch(k, "sw", 5*sim.Microsecond)
	cl := nic.New(k, "cl", nic.IntelPro1000, 0x20, sw.Connect(ethernet.GigabitJumbo()))
	peer := newEchoPeer(k, 0x99, sw.Connect(ethernet.GigabitJumbo()))
	_ = peer
	var dedicatedRTT sim.Duration
	k.Spawn("guest", func(p *sim.Proc) {
		var total sim.Duration
		const n = 20
		done := k.NewSignal("echo")
		var got bool
		cl.SetOnReceive(func(*ethernet.Frame) { got = true; done.Broadcast() })
		for i := 0; i < n; i++ {
			got = false
			start := p.Now()
			cl.Send(&ethernet.Frame{Dst: 0x99, EtherType: 0x0800, Size: 256, Payload: i})
			p.WaitCond(done, func() bool { return got })
			total += p.Now().Sub(start)
			p.Sleep(5 * sim.Millisecond)
		}
		dedicatedRTT = total / n
	})
	k.Run()

	if sharedRTT <= dedicatedRTT {
		t.Fatalf("shared-NIC RTT %v not worse than dedicated %v", sharedRTT, dedicatedRTT)
	}
	t.Logf("guest RTT: dedicated %v vs shared-under-load %v (+%.0f%%)",
		dedicatedRTT, sharedRTT, (float64(sharedRTT)/float64(dedicatedRTT)-1)*100)
}
