package nic

import (
	"encoding/binary"

	"repro/internal/ethernet"
	hwio "repro/internal/hw/io"
	"repro/internal/hw/mem"
	"repro/internal/sim"
)

// RingNIC is an e1000-style descriptor-ring front end over a NIC: the
// driver programs transmit/receive descriptor rings in guest memory and
// head/tail registers; the hardware consumes TX descriptors, fills RX
// descriptors, and raises interrupts. This is the register surface the
// paper's shared-NIC mediator (§6) virtualizes with shadow rings.
//
// Frame payloads travel through a buffer-address-keyed side table (the
// same simulation affordance as the storage DMA hints): StageTxFrame
// attaches the frame a TX buffer "contains", and TakeRxFrame collects the
// frame the hardware "wrote" into an RX buffer.
type RingNIC struct {
	*NIC
	Name string

	k      *sim.Kernel
	memory *mem.Memory
	IRQ    *hwio.IRQ

	ctrl uint32
	ims  uint32

	tdba, rdba uint64
	tdlen      uint32 // ring sizes in descriptors
	rdlen      uint32
	tdh, tdt   uint32
	rdh, rdt   uint32

	txFrames map[int64]*ethernet.Frame
	rxFrames map[int64]*ethernet.Frame

	TxCompleted int64
	RxDelivered int64
	RxDropped   int64 // no free RX descriptor
}

// Register offsets (subset of the e1000 layout).
const (
	RegCTRL  = 0x0000
	RegIMS   = 0x00D0
	RegRDBAL = 0x2800
	RegRDLEN = 0x2808
	RegRDH   = 0x2810
	RegRDT   = 0x2818
	RegTDBAL = 0x3800
	RegTDLEN = 0x3808
	RegTDH   = 0x3810
	RegTDT   = 0x3818
)

// CTRL bits.
const CtrlEnable = 1 << 1

// Descriptor layout: 16 bytes (addr 8, length 2, reserved, status 1).
const (
	DescSize   = 16
	DescDD     = 1 << 0 // descriptor done
	descStatus = 12     // status byte offset
)

// RingBase is the conventional MMIO base for the guest NIC's registers.
const RingBase = 0xE000_0000

// NewRingNIC wraps a NIC with the descriptor-ring register interface.
func NewRingNIC(k *sim.Kernel, base *NIC, memory *mem.Memory, irq *hwio.IRQ) *RingNIC {
	r := &RingNIC{
		NIC:      base,
		Name:     base.Name + ".ring",
		k:        k,
		memory:   memory,
		IRQ:      irq,
		txFrames: make(map[int64]*ethernet.Frame),
		rxFrames: make(map[int64]*ethernet.Frame),
	}
	base.SetOnReceive(r.hwReceive)
	return r
}

// RegisterRegion registers the ring register bank in ios, returning the
// region name for tap installation.
func (r *RingNIC) RegisterRegion(ios *hwio.Space) string {
	name := r.Name + ".regs"
	ios.Register(name, hwio.MMIO, RingBase, 0x4000, r)
	return name
}

// IORead implements io.Handler.
func (r *RingNIC) IORead(off int64, _ int) uint64 {
	switch off {
	case RegCTRL:
		return uint64(r.ctrl)
	case RegIMS:
		return uint64(r.ims)
	case RegRDBAL:
		return r.rdba
	case RegRDLEN:
		return uint64(r.rdlen)
	case RegRDH:
		return uint64(r.rdh)
	case RegRDT:
		return uint64(r.rdt)
	case RegTDBAL:
		return r.tdba
	case RegTDLEN:
		return uint64(r.tdlen)
	case RegTDH:
		return uint64(r.tdh)
	case RegTDT:
		return uint64(r.tdt)
	}
	return 0
}

// IOWrite implements io.Handler.
func (r *RingNIC) IOWrite(off int64, _ int, v uint64) {
	switch off {
	case RegCTRL:
		r.ctrl = uint32(v)
	case RegIMS:
		r.ims = uint32(v)
	case RegRDBAL:
		r.rdba = v
	case RegRDLEN:
		r.rdlen = uint32(v)
	case RegRDH:
		r.rdh = uint32(v)
	case RegRDT:
		r.rdt = uint32(v)
	case RegTDBAL:
		r.tdba = v
	case RegTDLEN:
		r.tdlen = uint32(v)
	case RegTDH:
		r.tdh = uint32(v)
	case RegTDT:
		r.tdt = uint32(v)
		r.processTx()
	}
}

// StageTxFrame attaches the frame "contained" in the TX buffer at addr.
func (r *RingNIC) StageTxFrame(addr int64, f *ethernet.Frame) { r.txFrames[addr] = f }

// TakeRxFrame collects the frame the hardware stored in the RX buffer at
// addr, consuming it.
func (r *RingNIC) TakeRxFrame(addr int64) (*ethernet.Frame, bool) {
	f, ok := r.rxFrames[addr]
	if ok {
		delete(r.rxFrames, addr)
	}
	return f, ok
}

// StageRxFrame stores a frame into an RX buffer (used by the shared-NIC
// mediator when copying frames into the guest's ring).
func (r *RingNIC) StageRxFrame(addr int64, f *ethernet.Frame) { r.rxFrames[addr] = f }

func (r *RingNIC) readDesc(base uint64, idx uint32) (addr int64, status byte) {
	b := r.memory.Read(int64(base)+int64(idx)*DescSize, DescSize)
	return int64(binary.LittleEndian.Uint64(b)), b[descStatus]
}

func (r *RingNIC) writeDescStatus(base uint64, idx uint32, status byte) {
	r.memory.Write(int64(base)+int64(idx)*DescSize+descStatus, []byte{status})
}

// WriteDesc is a driver/mediator helper: program descriptor idx of the
// ring at base with a buffer address.
func WriteDesc(m *mem.Memory, base uint64, idx uint32, addr int64, length uint16) {
	b := make([]byte, DescSize)
	binary.LittleEndian.PutUint64(b, uint64(addr))
	binary.LittleEndian.PutUint16(b[8:], length)
	m.Write(int64(base)+int64(idx)*DescSize, b)
}

// ReadDescAddr is a mediator helper: the buffer address of descriptor idx.
func ReadDescAddr(m *mem.Memory, base uint64, idx uint32) int64 {
	b := m.Read(int64(base)+int64(idx)*DescSize, 8)
	return int64(binary.LittleEndian.Uint64(b))
}

// DescDone reports whether descriptor idx has the DD bit set.
func DescDone(m *mem.Memory, base uint64, idx uint32) bool {
	b := m.Read(int64(base)+int64(idx)*DescSize+descStatus, 1)
	return b[0]&DescDD != 0
}

// SetDescDone sets/clears the DD bit of descriptor idx.
func SetDescDone(m *mem.Memory, base uint64, idx uint32, done bool) {
	v := byte(0)
	if done {
		v = DescDD
	}
	m.Write(int64(base)+int64(idx)*DescSize+descStatus, []byte{v})
}

// processTx transmits descriptors from head to tail.
func (r *RingNIC) processTx() {
	if r.ctrl&CtrlEnable == 0 || r.tdlen == 0 {
		return
	}
	sent := false
	for r.tdh != r.tdt {
		addr, _ := r.readDesc(r.tdba, r.tdh)
		if f, ok := r.txFrames[addr]; ok {
			delete(r.txFrames, addr)
			r.Send(f)
			r.TxCompleted++
			sent = true
		}
		r.writeDescStatus(r.tdba, r.tdh, DescDD)
		r.tdh = (r.tdh + 1) % r.tdlen
	}
	if sent && r.ims != 0 {
		r.IRQ.Raise()
	}
}

// hwReceive places an arriving frame into the next free RX descriptor.
func (r *RingNIC) hwReceive(f *ethernet.Frame) {
	if r.ctrl&CtrlEnable == 0 || r.rdlen == 0 || r.rdh == r.rdt {
		r.RxDropped++
		f.Release()
		return
	}
	addr, _ := r.readDesc(r.rdba, r.rdh)
	r.rxFrames[addr] = f
	r.writeDescStatus(r.rdba, r.rdh, DescDD)
	r.rdh = (r.rdh + 1) % r.rdlen
	r.RxDelivered++
	if r.ims != 0 {
		r.IRQ.Raise()
	}
}

// Heads reports the current head registers (for mediators and tests).
func (r *RingNIC) Heads() (tdh, rdh uint32) { return r.tdh, r.rdh }

var _ hwio.Handler = (*RingNIC)(nil)
