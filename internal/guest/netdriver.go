package guest

import (
	"fmt"

	"repro/internal/ethernet"
	hwio "repro/internal/hw/io"
	"repro/internal/hw/nic"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Guest-physical addresses for the network driver's rings and buffers.
const (
	netTXRing  = 0x30000
	netRXRing  = 0x34000
	netBufBase = 0x800000
	netRingLen = 64
	netBufSize = 0x2400 // 9 KB
)

// NetDriver is the guest's ring-NIC driver: it programs descriptor rings
// in guest memory and head/tail registers through MMIO, oblivious to
// whether a shared-NIC mediator is virtualizing those registers.
type NetDriver struct {
	m    *machine.Machine
	ring *nic.RingNIC
	irq  *hwio.IRQ

	tdt    uint32
	rxNext uint32 // next RX descriptor the driver will consume
	rdt    uint32
	txSeq  int64

	rxReady *sim.Signal
}

// NewNetDriver returns the guest driver for the machine's ring NIC. The
// ring handle is needed only for the frame side table (the simulation's
// stand-in for packet bytes in buffers).
func NewNetDriver(m *machine.Machine, ring *nic.RingNIC, irq *hwio.IRQ) *NetDriver {
	d := &NetDriver{m: m, ring: ring, irq: irq, rxReady: m.K.NewSignal(m.Name + ".net.rx")}
	return d
}

func (d *NetDriver) mmw(p *sim.Proc, cause *trace.Span, off int64, v uint64) {
	d.m.IO.Write(p, cause, hwio.MMIO, nic.RingBase+off, 4, v)
}

// Init programs the rings and enables the device. cause is the
// initializing context's causal span, carried by its register writes.
func (d *NetDriver) Init(p *sim.Proc, cause *trace.Span) error {
	d.irq.SetHandler(func() { d.rxReady.Broadcast() })
	for i := uint32(0); i < netRingLen; i++ {
		nic.WriteDesc(d.m.Mem, netRXRing, i, d.rxBuf(i), netBufSize)
	}
	d.mmw(p, cause, nic.RegIMS, 1)
	d.mmw(p, cause, nic.RegTDBAL, netTXRing)
	d.mmw(p, cause, nic.RegTDLEN, netRingLen)
	d.mmw(p, cause, nic.RegTDH, 0)
	d.mmw(p, cause, nic.RegTDT, 0)
	d.mmw(p, cause, nic.RegRDBAL, netRXRing)
	d.mmw(p, cause, nic.RegRDLEN, netRingLen)
	d.mmw(p, cause, nic.RegRDH, 0)
	d.rdt = netRingLen - 1
	d.mmw(p, cause, nic.RegRDT, uint64(d.rdt))
	d.mmw(p, cause, nic.RegCTRL, nic.CtrlEnable)
	return nil
}

func (d *NetDriver) txBuf(i uint32) int64 { return netBufBase + int64(i)*netBufSize }
func (d *NetDriver) rxBuf(i uint32) int64 {
	return netBufBase + int64(netRingLen+i)*netBufSize
}

// Send transmits one frame: stage it in the next TX buffer, program the
// descriptor, bump the tail register.
func (d *NetDriver) Send(p *sim.Proc, f *ethernet.Frame) {
	slot := d.tdt
	buf := d.txBuf(slot % netRingLen)
	d.ring.StageTxFrame(buf, f)
	nic.WriteDesc(d.m.Mem, netTXRing, slot, buf, uint16(f.Size))
	d.tdt = (d.tdt + 1) % netRingLen
	d.txSeq++
	d.mmw(p, nil, nic.RegTDT, uint64(d.tdt))
}

// TryRecv returns the next received frame without blocking.
func (d *NetDriver) TryRecv() (*ethernet.Frame, bool) {
	if !nic.DescDone(d.m.Mem, netRXRing, d.rxNext) {
		return nil, false
	}
	addr := nic.ReadDescAddr(d.m.Mem, netRXRing, d.rxNext)
	f, ok := d.ring.TakeRxFrame(addr)
	nic.SetDescDone(d.m.Mem, netRXRing, d.rxNext, false)
	d.rxNext = (d.rxNext + 1) % netRingLen
	// Return the buffer to the hardware.
	d.rdt = (d.rdt + 1) % netRingLen
	d.m.IO.Write(nil, nil, hwio.MMIO, nic.RingBase+nic.RegRDT, 4, uint64(d.rdt))
	if !ok {
		return nil, false
	}
	return f, true
}

// Recv blocks until a frame arrives or the timeout elapses.
func (d *NetDriver) Recv(p *sim.Proc, timeout sim.Duration) (*ethernet.Frame, error) {
	deadline := p.Now().Add(timeout)
	for {
		if f, ok := d.TryRecv(); ok {
			return f, nil
		}
		if p.Now() >= deadline {
			return nil, fmt.Errorf("guest/net: receive timeout")
		}
		if !p.WaitTimeout(d.rxReady, deadline.Sub(p.Now())) {
			if f, ok := d.TryRecv(); ok {
				return f, nil
			}
			return nil, fmt.Errorf("guest/net: receive timeout")
		}
	}
}
