// Package ahci models an AHCI host bus adapter at register and in-memory
// structure level: one port with a 32-slot command list, command tables
// with Register-H2D FISes and PRDTs in guest memory, write-1-clear
// interrupt status, and interrupt enables.
//
// The AHCI mediator in the paper (2,285 LOC) performs I/O interpretation
// against exactly these structures: it watches PxCI writes to learn which
// slots were issued, parses the command FIS in guest memory for the
// LBA/count/direction, and reads the PRDT for the guest DMA buffers. This
// model keeps those structures as real bytes in simulated guest memory so
// the mediator genuinely parses them.
package ahci

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/hw/disk"
	hwio "repro/internal/hw/io"
	"repro/internal/hw/mem"
	"repro/internal/sim"
)

// Global HBA register offsets.
const (
	RegCAP = 0x00
	RegGHC = 0x04
	RegIS  = 0x08
	RegPI  = 0x0C
)

// GHC bits.
const (
	GHCInterruptEnable = 1 << 1
	GHCAHCIEnable      = 1 << 31
)

// PortBase is the offset of port 0's register bank; each port is
// PortSpan bytes.
const (
	PortBase = 0x100
	PortSpan = 0x80
)

// Port register offsets (from the port's bank).
const (
	PxCLB  = 0x00
	PxCLBU = 0x04
	PxFB   = 0x08
	PxFBU  = 0x0C
	PxIS   = 0x10
	PxIE   = 0x14
	PxCMD  = 0x18
	PxTFD  = 0x20
	PxSIG  = 0x24
	PxSSTS = 0x28
	PxSERR = 0x30
	PxSACT = 0x34
	PxCI   = 0x38
)

// PxCMD bits.
const (
	CmdST  = 1 << 0 // start processing the command list
	CmdFRE = 1 << 4 // FIS receive enable
	CmdFR  = 1 << 14
	CmdCR  = 1 << 15
)

// PxIS bits.
const (
	ISDHRS = 1 << 0  // device-to-host register FIS (command completion)
	ISHBFS = 1 << 29 // host bus fatal error: a command structure or buffer outside memory
	ISTFES = 1 << 30 // task file error
)

// ErrOutsideMemory reports a command structure at a guest-set address
// outside memory. The HBA fails such a command with a host bus fatal error.
var ErrOutsideMemory = errors.New("ahci: command structure outside memory")

// Task-file data (PxTFD) status bits mirror the ATA status register.
const (
	TFDBusy = 1 << 7
	TFDDRQ  = 1 << 3
	TFDErr  = 1 << 0
)

// NumSlots is the command-list depth.
const NumSlots = 32

// Structure sizes in guest memory.
const (
	CmdHeaderSize = 32
	CmdTableFIS   = 0x00 // CFIS offset within the command table
	CmdTablePRDT  = 0x80 // PRDT offset within the command table
	PRDTEntrySize = 16
	FISRegH2D     = 0x27
)

// ATA commands the HBA model executes.
const (
	CmdReadDMAExt  = 0x25
	CmdWriteDMAExt = 0x35
	CmdFlushCache  = 0xE7
	CmdIdentify    = 0xEC
)

// HBA is a single-port AHCI controller attached to one drive.
type HBA struct {
	Name string

	k      *sim.Kernel
	memory *mem.Memory
	drive  *disk.Device
	IRQ    *hwio.IRQ

	ghc uint32
	is  uint32 // global interrupt status (bit 0 = port 0)

	// Port 0 state.
	clb  uint64
	fb   uint64
	pxis uint32
	pxie uint32
	cmd  uint32
	tfd  uint32
	ci   uint32
	sact uint32

	// The command engine is a state machine run by kernel callbacks:
	// running is set from the step scheduled at issue until the engine
	// finds issueOrder empty; slot, op and hd describe the executing
	// command while its completion step is pending.
	issueOrder []int // FIFO of issued slots awaiting the engine
	running    bool
	slot       int
	op         uint8
	hd         CmdHeader
	dmaLabel   string       // provenance name of gathered write data
	sg         []mem.Region // reusable decoded PRDT

	stepFn, doneFn func() // steps bound once at New

	// CmdLog counts executed ATA commands by opcode.
	CmdLog map[uint8]int64
	// SlotsIssued counts command issues (PxCI bits set).
	SlotsIssued int64
}

// New creates an HBA in front of drive. Register it with RegisterRegion.
func New(k *sim.Kernel, name string, drive *disk.Device, memory *mem.Memory, irq *hwio.IRQ) *HBA {
	h := &HBA{
		Name:     name,
		k:        k,
		memory:   memory,
		drive:    drive,
		IRQ:      irq,
		tfd:      0x50, // DRDY, not busy
		CmdLog:   make(map[uint8]int64),
		dmaLabel: name + ".dma",
	}
	h.stepFn, h.doneFn = h.step, h.done
	return h
}

// Drive exposes the attached disk device.
func (h *HBA) Drive() *disk.Device { return h.drive }

// ABAR is the conventional MMIO base the model registers at.
const ABAR = 0xF000_0000

// RegisterRegion registers the HBA's MMIO bank in ios and returns the
// region name for tap installation.
func (h *HBA) RegisterRegion(ios *hwio.Space) string {
	name := h.Name + ".abar"
	ios.Register(name, hwio.MMIO, ABAR, PortBase+PortSpan, h)
	return name
}

// IORead implements io.Handler.
func (h *HBA) IORead(off int64, _ int) uint64 {
	switch off {
	case RegCAP:
		return uint64(NumSlots-1)<<8 | 1<<30 // slots, 64-bit addressing
	case RegGHC:
		return uint64(h.ghc)
	case RegIS:
		return uint64(h.is)
	case RegPI:
		return 1 // one port
	}
	if off < PortBase {
		return 0
	}
	switch off - PortBase {
	case PxCLB:
		return uint64(uint32(h.clb))
	case PxCLBU:
		return h.clb >> 32
	case PxFB:
		return uint64(uint32(h.fb))
	case PxFBU:
		return h.fb >> 32
	case PxIS:
		return uint64(h.pxis)
	case PxIE:
		return uint64(h.pxie)
	case PxCMD:
		return uint64(h.cmd)
	case PxTFD:
		return uint64(h.tfd)
	case PxSIG:
		return 0x0101 // SATA drive signature
	case PxSSTS:
		return 0x133 // device present, Gen3, active
	case PxSERR:
		return 0
	case PxSACT:
		return uint64(h.sact)
	case PxCI:
		return uint64(h.ci)
	}
	return 0
}

// IOWrite implements io.Handler.
func (h *HBA) IOWrite(off int64, _ int, v uint64) {
	switch off {
	case RegGHC:
		h.ghc = uint32(v)
		return
	case RegIS:
		h.is &^= uint32(v) // write 1 to clear
		return
	}
	if off < PortBase {
		return
	}
	switch off - PortBase {
	case PxCLB:
		h.clb = h.clb&^0xFFFFFFFF | v&0xFFFFFFFF
	case PxCLBU:
		h.clb = h.clb&0xFFFFFFFF | v<<32
	case PxFB:
		h.fb = h.fb&^0xFFFFFFFF | v&0xFFFFFFFF
	case PxFBU:
		h.fb = h.fb&0xFFFFFFFF | v<<32
	case PxIS:
		h.pxis &^= uint32(v) // write 1 to clear
	case PxIE:
		h.pxie = uint32(v)
	case PxCMD:
		h.cmd = uint32(v)
		if h.cmd&CmdST != 0 {
			h.cmd |= CmdCR
		} else {
			h.cmd &^= CmdCR
		}
		if h.cmd&CmdFRE != 0 {
			h.cmd |= CmdFR
		} else {
			h.cmd &^= CmdFR
		}
	case PxCI:
		h.issueSlots(uint32(v))
	case PxSACT:
		h.sact |= uint32(v)
	}
}

// issueSlots accepts newly set CI bits in FIFO bit order.
func (h *HBA) issueSlots(v uint32) {
	if h.cmd&CmdST == 0 {
		return // command processing not started
	}
	newBits := v &^ h.ci
	h.ci |= v
	for slot := 0; slot < NumSlots; slot++ {
		if newBits&(1<<slot) != 0 {
			h.issueOrder = append(h.issueOrder, slot)
			h.SlotsIssued++
		}
	}
	if newBits != 0 && !h.running {
		h.running = true
		h.k.After(0, h.stepFn)
	}
}

// CmdHeader is the decoded 32-byte command-list entry.
type CmdHeader struct {
	FISLen int  // command FIS length in dwords
	Write  bool // direction: host-to-device
	PRDTL  int  // PRDT entry count
	CTBA   uint64
	PRDBC  uint32
}

// ReadCmdHeader decodes slot's header from the command list at clb. It
// fails with ErrOutsideMemory if the header lies outside memory.
func ReadCmdHeader(m *mem.Memory, clb uint64, slot int) (CmdHeader, error) {
	var b [CmdHeaderSize]byte
	addr := int64(clb) + int64(slot)*CmdHeaderSize
	if !m.Contains(addr, CmdHeaderSize) {
		return CmdHeader{}, ErrOutsideMemory
	}
	m.ReadInto(addr, b[:])
	dw0 := binary.LittleEndian.Uint32(b[0:])
	return CmdHeader{
		FISLen: int(dw0 & 0x1F),
		Write:  dw0&(1<<6) != 0,
		PRDTL:  int(dw0 >> 16),
		PRDBC:  binary.LittleEndian.Uint32(b[4:]),
		CTBA:   uint64(binary.LittleEndian.Uint32(b[8:])) | uint64(binary.LittleEndian.Uint32(b[12:]))<<32,
	}, nil
}

// WriteCmdHeader encodes a header into the command list.
func WriteCmdHeader(m *mem.Memory, clb uint64, slot int, hd CmdHeader) {
	var b [CmdHeaderSize]byte
	dw0 := uint32(hd.FISLen&0x1F) | uint32(hd.PRDTL)<<16
	if hd.Write {
		dw0 |= 1 << 6
	}
	binary.LittleEndian.PutUint32(b[0:], dw0)
	binary.LittleEndian.PutUint32(b[4:], hd.PRDBC)
	binary.LittleEndian.PutUint32(b[8:], uint32(hd.CTBA))
	binary.LittleEndian.PutUint32(b[12:], uint32(hd.CTBA>>32))
	m.Write(int64(clb)+int64(slot)*CmdHeaderSize, b[:])
}

// FIS is the decoded Register H2D FIS.
type FIS struct {
	Command uint8
	LBA     int64
	Count   int64
}

// ReadFIS decodes the command FIS from a command table. It fails with
// ErrOutsideMemory if the FIS lies outside memory.
func ReadFIS(m *mem.Memory, ctba uint64) (FIS, error) {
	var b [20]byte
	if !m.Contains(int64(ctba)+CmdTableFIS, int64(len(b))) {
		return FIS{}, ErrOutsideMemory
	}
	m.ReadInto(int64(ctba)+CmdTableFIS, b[:])
	if b[0] != FISRegH2D {
		return FIS{}, fmt.Errorf("ahci: not a Register H2D FIS: %#x", b[0])
	}
	f := FIS{Command: b[2]}
	f.LBA = int64(b[4]) | int64(b[5])<<8 | int64(b[6])<<16 |
		int64(b[8])<<24 | int64(b[9])<<32 | int64(b[10])<<40
	f.Count = int64(b[12]) | int64(b[13])<<8
	if f.Count == 0 {
		f.Count = 65536
	}
	return f, nil
}

// WriteFIS encodes a Register H2D FIS into a command table.
func WriteFIS(m *mem.Memory, ctba uint64, f FIS) {
	var b [20]byte
	b[0] = FISRegH2D
	b[1] = 1 << 7 // C bit: command register update
	b[2] = f.Command
	b[4], b[5], b[6] = byte(f.LBA), byte(f.LBA>>8), byte(f.LBA>>16)
	b[7] = 1 << 6 // LBA mode
	b[8], b[9], b[10] = byte(f.LBA>>24), byte(f.LBA>>32), byte(f.LBA>>40)
	b[12], b[13] = byte(f.Count), byte(f.Count>>8)
	m.Write(int64(ctba)+CmdTableFIS, b[:])
}

// AppendPRDs decodes the first n PRDT entries of the command table at
// ctba onto dst, one region per entry, and returns the extended slice. It
// fails with ErrOutsideMemory, leaving dst as it was, if those entries lie
// outside memory; the regions they name are not checked.
func AppendPRDs(dst []mem.Region, m *mem.Memory, ctba uint64, n int) ([]mem.Region, error) {
	base := int64(ctba) + CmdTablePRDT
	if !m.Contains(base, int64(n)*PRDTEntrySize) {
		return dst, ErrOutsideMemory
	}
	var b [PRDTEntrySize]byte
	for i := 0; i < n; i++ {
		m.ReadInto(base+int64(i)*PRDTEntrySize, b[:])
		dst = append(dst, mem.Region{
			Start: int64(binary.LittleEndian.Uint64(b[0:])),
			Size:  int64(binary.LittleEndian.Uint32(b[12:])&0x3FFFFF) + 1, // 0-based
		})
	}
	return dst, nil
}

// WritePRDT encodes PRDT entries, one per region, into a command table.
func WritePRDT(m *mem.Memory, ctba uint64, prds []mem.Region) {
	for i, r := range prds {
		var b [PRDTEntrySize]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(r.Start))
		binary.LittleEndian.PutUint32(b[12:], uint32(r.Size-1)&0x3FFFFF)
		m.Write(int64(ctba)+CmdTablePRDT+int64(i)*PRDTEntrySize, b[:])
	}
}

// step runs issued slots in FIFO order until one has to wait for the
// drive or a command's service time; that command's last step calls
// step again, so the next slot runs inline, in the same event. With no
// slot left, the engine goes idle until the next issue schedules a step.
func (h *HBA) step() {
	for len(h.issueOrder) > 0 {
		slot := h.issueOrder[0]
		n := copy(h.issueOrder, h.issueOrder[1:])
		h.issueOrder = h.issueOrder[:n] // shift in place; keep the backing array
		if h.execute(slot) {
			return
		}
	}
	h.running = false
}

// execute starts one issued slot. It reports whether the command is still
// in progress, with its completion step scheduled; otherwise the slot has
// completed. A command structure or data buffer the guest placed outside
// memory fails the slot with a host bus fatal error.
func (h *HBA) execute(slot int) bool {
	hd, err := ReadCmdHeader(h.memory, h.clb, slot)
	if err != nil {
		h.fault(slot, ISHBFS)
		return false
	}
	fis, err := ReadFIS(h.memory, hd.CTBA)
	switch {
	case errors.Is(err, ErrOutsideMemory):
		h.fault(slot, ISHBFS)
		return false
	case err != nil:
		h.fault(slot, ISDHRS)
		return false
	}
	h.CmdLog[fis.Command]++
	h.tfd |= TFDBusy
	if h.sg, err = AppendPRDs(h.sg[:0], h.memory, hd.CTBA, hd.PRDTL); err != nil {
		h.fault(slot, ISHBFS)
		return false
	}

	h.slot, h.op = slot, fis.Command
	switch fis.Command {
	case CmdFlushCache:
		h.k.After(500*sim.Microsecond, h.doneFn)
	case CmdIdentify:
		h.k.After(100*sim.Microsecond, h.doneFn)
	case CmdReadDMAExt, CmdWriteDMAExt:
		if hd.Write != (fis.Command == CmdWriteDMAExt) {
			h.fault(slot, ISDHRS)
			return false
		}
		if !h.memory.Reachable(h.sg, fis.Count*disk.SectorSize) {
			h.fault(slot, ISHBFS)
			return false
		}
		if !h.drive.DMA(h.memory, h.sg, fis.LBA, fis.Count, hd.Write, h.dmaLabel, h.doneFn) {
			h.fault(slot, ISDHRS)
			return false
		}
		hd.PRDBC = uint32(fis.Count * disk.SectorSize)
		h.hd = hd
	default:
		h.fault(slot, ISDHRS)
		return false
	}
	return true
}

// done completes the executing slot once its service time has passed,
// then runs the next issued slot.
func (h *HBA) done() {
	switch h.op {
	case CmdIdentify:
		data := h.identifyData()
		if !h.memory.Reachable(h.sg, int64(len(data))) {
			h.fault(h.slot, ISHBFS)
			h.step()
			return
		}
		h.memory.Scatter(h.sg, data) // identify data is DMA'd like a read
	case CmdReadDMAExt, CmdWriteDMAExt:
		WriteCmdHeader(h.memory, h.clb, h.slot, h.hd)
	}
	h.completeSlot(h.slot, ISDHRS)
	h.step()
}

// fault fails slot with a task-file error; cause is ISDHRS for an error
// the device reported, ISHBFS for a structure or buffer outside memory.
func (h *HBA) fault(slot int, cause uint32) {
	h.tfd = 0x50 | TFDErr
	h.completeSlot(slot, cause|ISTFES)
}

func (h *HBA) completeSlot(slot int, isBits uint32) {
	if isBits&ISTFES == 0 {
		h.tfd = 0x50
	}
	h.ci &^= 1 << slot
	h.pxis |= isBits
	if h.pxis&h.pxie != 0 && h.ghc&GHCInterruptEnable != 0 {
		h.is |= 1 // port 0
		h.IRQ.Raise()
	}
}

func (h *HBA) identifyData() []byte {
	b := make([]byte, 512)
	put16 := func(word int, v uint16) { b[word*2] = byte(v); b[word*2+1] = byte(v >> 8) }
	put16(83, 1<<10)
	for i := 0; i < 4; i++ {
		put16(100+i, uint16(h.drive.Sectors>>(16*i)))
	}
	return b
}

// Busy reports whether a command is currently executing.
func (h *HBA) Busy() bool { return h.tfd&TFDBusy != 0 || len(h.issueOrder) > 0 }

// OutstandingCI reports the current command-issue bitmap.
func (h *HBA) OutstandingCI() uint32 { return h.ci }

// CLB reports the command-list base the driver programmed (for mediators).
func (h *HBA) CLB() uint64 { return h.clb }
