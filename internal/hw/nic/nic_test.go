package nic

import (
	"testing"

	"repro/internal/ethernet"
	hwio "repro/internal/hw/io"
	"repro/internal/hw/mem"
	"repro/internal/sim"
)

func pair(k *sim.Kernel) (*NIC, *NIC) {
	sw := ethernet.NewSwitch(k, "sw", sim.Microsecond)
	a := New(k, "a", IntelPro1000, 0x0A, sw.Connect(ethernet.GigabitJumbo()))
	b := New(k, "b", RealtekRTL816x, 0x0B, sw.Connect(ethernet.GigabitJumbo()))
	return a, b
}

func TestSendReceivePolled(t *testing.T) {
	k := sim.New(1)
	a, b := pair(k)
	a.Send(&ethernet.Frame{Dst: 0x0B, Size: 500, Payload: "hi"})
	k.Run()
	f, ok := b.TryRecv()
	if !ok || f.Payload.(string) != "hi" {
		t.Fatal("polled receive failed")
	}
	if f.Src != 0x0A {
		t.Fatal("source MAC not stamped")
	}
	if a.TxFrames.Value() != 1 || b.RxFrames.Value() != 1 {
		t.Fatal("counters wrong")
	}
}

// TestArrivalHook: the arrival hook runs once per frame queued for polled
// receive, with the frame already on the queue, and not for filtered
// frames or frames the receive callback consumes.
func TestArrivalHook(t *testing.T) {
	k := sim.New(1)
	a, b := pair(k)
	var seen []int
	b.SetOnArrival(func() { seen = append(seen, b.RxPending()) })
	a.Send(&ethernet.Frame{Dst: 0x0B, Size: 500})
	a.Send(&ethernet.Frame{Dst: 0x0B, Size: 500})
	a.Send(&ethernet.Frame{Dst: 0xEE, Size: 500}) // filtered
	k.Run()
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("hook saw queue lengths %v, want [1 2]", seen)
	}
	b.SetOnReceive(func(f *ethernet.Frame) { f.Release() })
	a.Send(&ethernet.Frame{Dst: 0x0B, Size: 500})
	k.Run()
	b.SetOnReceive(nil)
	b.SetOnArrival(nil)
	a.Send(&ethernet.Frame{Dst: 0x0B, Size: 500})
	k.Run()
	if len(seen) != 2 || b.RxPending() != 3 {
		t.Fatalf("hook ran %d times with %d queued, want 2 and 3", len(seen), b.RxPending())
	}
}

func TestMACFiltering(t *testing.T) {
	k := sim.New(1)
	a, b := pair(k)
	a.Send(&ethernet.Frame{Dst: 0xEE, Size: 100}) // not b's address
	k.Run()
	if b.RxPending() != 0 || b.Filtered.Value() != 1 {
		t.Fatalf("filtering failed: pending=%d filtered=%d", b.RxPending(), b.Filtered.Value())
	}
	b.Promiscuous = true
	a.Send(&ethernet.Frame{Dst: 0xEE, Size: 100})
	k.Run()
	if b.RxPending() != 1 {
		t.Fatal("promiscuous mode did not accept the frame")
	}
}

func TestBroadcastAccepted(t *testing.T) {
	k := sim.New(1)
	a, b := pair(k)
	a.Send(&ethernet.Frame{Dst: ethernet.Broadcast, Size: 64})
	k.Run()
	if b.RxPending() != 1 {
		t.Fatal("broadcast not accepted")
	}
}

func TestOnReceiveCallback(t *testing.T) {
	k := sim.New(1)
	a, b := pair(k)
	var got *ethernet.Frame
	b.SetOnReceive(func(f *ethernet.Frame) { got = f })
	a.Send(&ethernet.Frame{Dst: 0x0B, Size: 64, Payload: 42})
	k.Run()
	if got == nil || got.Payload.(int) != 42 {
		t.Fatal("callback delivery failed")
	}
	if b.RxPending() != 0 {
		t.Fatal("callback frame also queued")
	}
}

func TestBlockingRecv(t *testing.T) {
	k := sim.New(1)
	a, b := pair(k)
	var at sim.Time
	k.Spawn("rx", func(p *sim.Proc) {
		b.Recv(p)
		at = p.Now()
	})
	k.Spawn("tx", func(p *sim.Proc) {
		p.Sleep(5 * sim.Millisecond)
		a.Send(&ethernet.Frame{Dst: 0x0B, Size: 64})
	})
	k.Run()
	if at < sim.Time(5*sim.Millisecond) {
		t.Fatalf("Recv returned at %v before send", at)
	}
}

// --- RingNIC ---------------------------------------------------------------

func ringRig(k *sim.Kernel) (*RingNIC, *NIC, *mem.Memory, *hwio.Space, *hwio.IRQ) {
	sw := ethernet.NewSwitch(k, "sw", sim.Microsecond)
	base := New(k, "a", IntelPro1000, 0x0A, sw.Connect(ethernet.GigabitJumbo()))
	peer := New(k, "b", IntelPro1000, 0x0B, sw.Connect(ethernet.GigabitJumbo()))
	m := mem.New(16 << 20)
	irq := hwio.NewIRQ(k, "nic")
	r := NewRingNIC(k, base, m, irq)
	ios := hwio.NewSpace(k)
	r.RegisterRegion(ios)
	return r, peer, m, ios, irq
}

func TestRingTransmit(t *testing.T) {
	k := sim.New(1)
	r, peer, m, ios, _ := ringRig(k)
	const txRing, buf = 0x1000, 0x8000
	WriteDesc(m, txRing, 0, buf, 500)
	r.StageTxFrame(buf, &ethernet.Frame{Dst: 0x0B, Size: 500, Payload: "x"})
	ios.Write(nil, nil, hwio.MMIO, RingBase+RegTDBAL, 8, txRing)
	ios.Write(nil, nil, hwio.MMIO, RingBase+RegTDLEN, 4, 8)
	ios.Write(nil, nil, hwio.MMIO, RingBase+RegCTRL, 4, CtrlEnable)
	ios.Write(nil, nil, hwio.MMIO, RingBase+RegTDT, 4, 1)
	k.Run()
	if peer.RxPending() != 1 {
		t.Fatal("ring transmit did not deliver")
	}
	if !DescDone(m, txRing, 0) {
		t.Fatal("TX descriptor DD not set")
	}
	if r.TxCompleted != 1 {
		t.Fatalf("TxCompleted = %d", r.TxCompleted)
	}
}

func TestRingReceive(t *testing.T) {
	k := sim.New(1)
	r, peer, m, ios, irq := ringRig(k)
	irqs := 0
	irq.SetHandler(func() { irqs++ })
	const rxRing, buf = 0x2000, 0x9000
	WriteDesc(m, rxRing, 0, buf, 9018)
	WriteDesc(m, rxRing, 1, buf+0x2400, 9018)
	ios.Write(nil, nil, hwio.MMIO, RingBase+RegIMS, 4, 1)
	ios.Write(nil, nil, hwio.MMIO, RingBase+RegRDBAL, 8, rxRing)
	ios.Write(nil, nil, hwio.MMIO, RingBase+RegRDLEN, 4, 2)
	ios.Write(nil, nil, hwio.MMIO, RingBase+RegRDT, 4, 1)
	ios.Write(nil, nil, hwio.MMIO, RingBase+RegCTRL, 4, CtrlEnable)
	peer.Send(&ethernet.Frame{Dst: 0x0A, Size: 800, Payload: "in"})
	k.Run()
	if !DescDone(m, rxRing, 0) {
		t.Fatal("RX descriptor DD not set")
	}
	f, ok := r.TakeRxFrame(buf)
	if !ok || f.Payload.(string) != "in" {
		t.Fatal("RX frame not retrievable")
	}
	if irqs != 1 {
		t.Fatalf("irqs = %d", irqs)
	}
}

func TestRingRxDropWhenFull(t *testing.T) {
	k := sim.New(1)
	r, peer, m, ios, _ := ringRig(k)
	const rxRing = 0x2000
	WriteDesc(m, rxRing, 0, 0x9000, 9018)
	ios.Write(nil, nil, hwio.MMIO, RingBase+RegRDBAL, 8, rxRing)
	ios.Write(nil, nil, hwio.MMIO, RingBase+RegRDLEN, 4, 2)
	ios.Write(nil, nil, hwio.MMIO, RingBase+RegRDT, 4, 0) // head == tail: no buffers
	ios.Write(nil, nil, hwio.MMIO, RingBase+RegCTRL, 4, CtrlEnable)
	peer.Send(&ethernet.Frame{Dst: 0x0A, Size: 100})
	k.Run()
	if r.RxDropped != 1 {
		t.Fatalf("RxDropped = %d, want 1", r.RxDropped)
	}
}

func TestRingDisabledIgnoresTraffic(t *testing.T) {
	k := sim.New(1)
	r, peer, _, _, _ := ringRig(k)
	peer.Send(&ethernet.Frame{Dst: 0x0A, Size: 100})
	k.Run()
	if r.RxDelivered != 0 || r.RxDropped != 1 {
		t.Fatalf("disabled ring handled traffic: delivered=%d dropped=%d", r.RxDelivered, r.RxDropped)
	}
}
