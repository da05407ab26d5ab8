package mediator

import (
	"repro/internal/cpuvirt"
	"repro/internal/ethernet"
	hwio "repro/internal/hw/io"
	"repro/internal/hw/mem"
	"repro/internal/hw/nic"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SharedNIC is the §6 alternative the paper implements but does not
// deploy: a device mediator that lets the guest and VMM share one NIC.
//
// The mediator maintains shadow transmit/receive rings in VMM memory and
// points the physical NIC at them; the guest's rings stay in guest memory
// and are virtualized — the mediator copies descriptors between guest and
// shadow rings, interleaving its own frames into the shadow TX ring, and
// demultiplexes received frames by EtherType (AoE to the VMM, everything
// else to the guest). Guest register accesses to the ring bank trap; the
// head/tail registers the guest sees are emulated.
//
// The paper's reasons for preferring a dedicated NIC are visible here:
// every guest TDT write costs a trap plus descriptor copying, receive
// demultiplexing adds latency and jitter to guest traffic, and bulk VMM
// transfers contend with the guest for the wire.
type SharedNIC struct {
	m       *machine.Machine
	ring    *nic.RingNIC
	regName string

	attached bool

	// Guest-visible (virtualized) ring state.
	gTDBA, gRDBA uint64
	gTDLEN       uint32
	gRDLEN       uint32
	gTDH, gTDT   uint32
	gRDH, gRDT   uint32
	gCTRL        uint32
	gIMS         uint32

	// Shadow rings in VMM memory.
	sTXBase, sRXBase uint64
	sTXLen, sRXLen   uint32
	sTDT             uint32
	sRDT             uint32
	sRDH             uint32 // VMM's own consumption cursor of the shadow RX ring

	// VMM-side receive queue (demuxed AoE frames) and transmit staging.
	vmmRx     []*ethernet.Frame
	onReceive func(*ethernet.Frame)
	onArrival func()
	vmmBufSeq int64

	// Stats.
	GuestTxFrames metrics.Counter
	GuestRxFrames metrics.Counter
	VMMTxFrames   metrics.Counter
	VMMRxFrames   metrics.Counter
	Traps         metrics.Counter
}

// Instrument adopts the shared-NIC mediator's counters into reg under
// "mediator.nic.*" names labeled with the node. No-op on a nil registry.
func (md *SharedNIC) Instrument(reg *metrics.Registry, node string) {
	l := metrics.L("node", node)
	reg.RegisterCounter("mediator.nic.guest_tx_frames", &md.GuestTxFrames, l)
	reg.RegisterCounter("mediator.nic.guest_rx_frames", &md.GuestRxFrames, l)
	reg.RegisterCounter("mediator.nic.vmm_tx_frames", &md.VMMTxFrames, l)
	reg.RegisterCounter("mediator.nic.vmm_rx_frames", &md.VMMRxFrames, l)
	reg.RegisterCounter("mediator.nic.traps", &md.Traps, l)
}

// Shadow ring geometry within the VMM region.
const (
	snicTXOff   = 0x10000
	snicRXOff   = 0x14000
	snicBufOff  = 0x20000
	snicRingLen = 256
)

// NewSharedNIC builds the mediator over the machine's ring NIC. vmmRegion
// provides shadow-ring and buffer memory.
func NewSharedNIC(m *machine.Machine, ring *nic.RingNIC, regName string, vmmRegion mem.Region) *SharedNIC {
	md := &SharedNIC{
		m:       m,
		ring:    ring,
		regName: regName,
		sTXBase: uint64(vmmRegion.Start + snicTXOff),
		sRXBase: uint64(vmmRegion.Start + snicRXOff),
		sTXLen:  snicRingLen,
		sRXLen:  snicRingLen,
	}
	return md
}

// Attach installs the tap and takes ownership of the physical NIC: the
// real rings become the shadow rings, interrupts are masked (the VMM
// polls), and RX buffers are pre-posted.
func (md *SharedNIC) Attach() {
	md.m.IO.SetTap(md.regName, md)
	dev := md.m.IO.Lookup(md.regName).Device()
	// Pre-post shadow RX descriptors pointing at VMM buffers.
	for i := uint32(0); i < md.sRXLen; i++ {
		nic.WriteDesc(md.m.Mem, md.sRXBase, i, md.vmmBuf(int64(i)), 9018)
	}
	dev.IOWrite(nic.RegIMS, 4, 0) // VMM polls; no interrupts
	dev.IOWrite(nic.RegTDBAL, 8, md.sTXBase)
	dev.IOWrite(nic.RegTDLEN, 4, uint64(md.sTXLen))
	dev.IOWrite(nic.RegTDH, 4, 0)
	dev.IOWrite(nic.RegTDT, 4, 0)
	dev.IOWrite(nic.RegRDBAL, 8, md.sRXBase)
	dev.IOWrite(nic.RegRDLEN, 4, uint64(md.sRXLen))
	dev.IOWrite(nic.RegRDH, 4, 0)
	md.sRDT = md.sRXLen - 1
	dev.IOWrite(nic.RegRDT, 4, uint64(md.sRDT))
	dev.IOWrite(nic.RegCTRL, 4, nic.CtrlEnable)
	md.attached = true
}

// Detach removes the tap. De-virtualizing a shared NIC would additionally
// require handing the ring state back to the guest — exactly the
// complication the paper cites for preferring a dedicated NIC.
func (md *SharedNIC) Detach() {
	md.m.IO.SetTap(md.regName, nil)
	md.attached = false
}

func (md *SharedNIC) vmmBuf(i int64) int64 {
	base := md.sRXBase - uint64(snicRXOff) + uint64(snicBufOff)
	return int64(base) + i*0x2400 // 9 KB-aligned buffers
}

// --- io.Tap: guest register virtualization -------------------------------

// Trap implements io.Tap: a guest access to the ring registers is an MMIO
// exit.
func (md *SharedNIC) Trap(*hwio.Region) sim.Duration { return md.m.World.Charge(cpuvirt.ExitMMIO) }

// TapRead implements io.Tap: the guest sees its own virtual ring state.
func (md *SharedNIC) TapRead(_ *hwio.Region, off int64, _ int, _ *trace.Span) (uint64, bool) {
	md.Traps.Inc()
	switch off {
	case nic.RegCTRL:
		return uint64(md.gCTRL), true
	case nic.RegIMS:
		return uint64(md.gIMS), true
	case nic.RegTDBAL:
		return md.gTDBA, true
	case nic.RegTDLEN:
		return uint64(md.gTDLEN), true
	case nic.RegTDH:
		return uint64(md.gTDH), true
	case nic.RegTDT:
		return uint64(md.gTDT), true
	case nic.RegRDBAL:
		return md.gRDBA, true
	case nic.RegRDLEN:
		return uint64(md.gRDLEN), true
	case nic.RegRDH:
		return uint64(md.gRDH), true
	case nic.RegRDT:
		return uint64(md.gRDT), true
	}
	return 0, true
}

// TapWrite implements io.Tap.
func (md *SharedNIC) TapWrite(_ *hwio.Region, off int64, _ int, v uint64, _ *trace.Span) bool {
	md.Traps.Inc()
	switch off {
	case nic.RegCTRL:
		md.gCTRL = uint32(v)
	case nic.RegIMS:
		md.gIMS = uint32(v)
	case nic.RegTDBAL:
		md.gTDBA = v
	case nic.RegTDLEN:
		md.gTDLEN = uint32(v)
	case nic.RegTDH:
		md.gTDH = uint32(v)
	case nic.RegTDT:
		md.gTDT = uint32(v)
		md.forwardGuestTx()
	case nic.RegRDBAL:
		md.gRDBA = v
	case nic.RegRDLEN:
		md.gRDLEN = uint32(v)
	case nic.RegRDH:
		md.gRDH = uint32(v)
	case nic.RegRDT:
		md.gRDT = uint32(v)
	}
	return true // the guest never touches the real registers
}

// forwardGuestTx copies newly issued guest TX descriptors into the shadow
// ring. Buffer addresses carry over unchanged (the frame side table is
// keyed by address), so no payload copy is needed on transmit.
func (md *SharedNIC) forwardGuestTx() {
	if md.gCTRL&nic.CtrlEnable == 0 || md.gTDLEN == 0 {
		return
	}
	dev := md.m.IO.Lookup(md.regName).Device()
	for md.gTDH != md.gTDT {
		addr := nic.ReadDescAddr(md.m.Mem, md.gTDBA, md.gTDH)
		nic.WriteDesc(md.m.Mem, md.sTXBase, md.sTDT, addr, 9018)
		md.sTDT = (md.sTDT + 1) % md.sTXLen
		// Completion is synchronous in the model: mark the guest's
		// descriptor done as soon as the hardware consumes it.
		nic.SetDescDone(md.m.Mem, md.gTDBA, md.gTDH, true)
		md.gTDH = (md.gTDH + 1) % md.gTDLEN
		md.GuestTxFrames.Inc()
	}
	dev.IOWrite(nic.RegTDT, 4, uint64(md.sTDT))
	if md.gIMS != 0 {
		md.ring.IRQ.Raise()
	}
}

// Poll drains the shadow RX ring, demultiplexing AoE frames to the VMM
// and everything else into the guest's RX ring. The VMM's polling thread
// calls this at its usual interval.
func (md *SharedNIC) Poll() {
	dev := md.m.IO.Lookup(md.regName).Device()
	rdh := uint32(dev.IORead(nic.RegRDH, 4))
	delivered := false
	for md.sRDH != rdh {
		bufAddr := nic.ReadDescAddr(md.m.Mem, md.sRXBase, md.sRDH)
		f, ok := md.ring.TakeRxFrame(bufAddr)
		nic.SetDescDone(md.m.Mem, md.sRXBase, md.sRDH, false)
		// Recycle the descriptor for the hardware.
		md.sRDT = (md.sRDT + 1) % md.sRXLen
		dev.IOWrite(nic.RegRDT, 4, uint64(md.sRDT))
		md.sRDH = (md.sRDH + 1) % md.sRXLen
		if !ok {
			continue
		}
		if f.EtherType == aoeEtherType {
			md.VMMRxFrames.Inc()
			if md.onReceive != nil {
				md.onReceive(f)
			} else {
				md.vmmRx = append(md.vmmRx, f)
				if md.onArrival != nil {
					md.onArrival()
				}
			}
			continue
		}
		if md.copyToGuestRx(f) {
			delivered = true
		}
	}
	if delivered && md.gIMS != 0 {
		md.ring.IRQ.Raise()
	}
}

// aoeEtherType mirrors aoe.EtherType without importing the package (the
// aoe package imports this one's transport consumer side).
const aoeEtherType = 0x88A2

// copyToGuestRx stores a frame into the guest's next free RX descriptor.
func (md *SharedNIC) copyToGuestRx(f *ethernet.Frame) bool {
	if md.gCTRL&nic.CtrlEnable == 0 || md.gRDLEN == 0 || md.gRDH == md.gRDT {
		f.Release()
		return false // guest has no buffer; drop, as hardware would
	}
	addr := nic.ReadDescAddr(md.m.Mem, md.gRDBA, md.gRDH)
	md.ring.StageRxFrame(addr, f)
	nic.SetDescDone(md.m.Mem, md.gRDBA, md.gRDH, true)
	md.gRDH = (md.gRDH + 1) % md.gRDLEN
	md.GuestRxFrames.Inc()
	return true
}

// --- aoe.Transport: the VMM's network path over the shared NIC ----------

// Send transmits a VMM frame by staging it at a VMM buffer and appending
// a shadow TX descriptor — interleaved with guest traffic.
func (md *SharedNIC) Send(f *ethernet.Frame) {
	md.VMMTxFrames.Inc()
	buf := md.vmmBuf(512 + md.vmmBufSeq%int64(md.sTXLen))
	md.vmmBufSeq++
	md.ring.StageTxFrame(buf, f)
	nic.WriteDesc(md.m.Mem, md.sTXBase, md.sTDT, buf, 9018)
	md.sTDT = (md.sTDT + 1) % md.sTXLen
	md.m.IO.Lookup(md.regName).Device().IOWrite(nic.RegTDT, 4, uint64(md.sTDT))
}

// MTU implements aoe.Transport.
func (md *SharedNIC) MTU() int64 { return md.ring.MTU() }

// SetOnReceive implements aoe.Transport for the VMM's demuxed AoE frames.
func (md *SharedNIC) SetOnReceive(fn func(*ethernet.Frame)) { md.onReceive = fn }

// SetOnArrival implements aoe.Transport: fn runs after each demuxed AoE
// frame is queued for TryRecv.
func (md *SharedNIC) SetOnArrival(fn func()) { md.onArrival = fn }

// RxPending implements aoe.Transport.
func (md *SharedNIC) RxPending() int { return len(md.vmmRx) }

// TryRecv implements aoe.Transport.
func (md *SharedNIC) TryRecv() (*ethernet.Frame, bool) {
	if len(md.vmmRx) == 0 {
		return nil, false
	}
	f := md.vmmRx[0]
	md.vmmRx = md.vmmRx[1:]
	return f, true
}

var _ hwio.Tap = (*SharedNIC)(nil)
