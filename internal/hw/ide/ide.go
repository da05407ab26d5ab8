// Package ide models an IDE/ATA host controller at register level: the
// task-file command block, the control block, and a bus-master DMA engine
// with PRD tables in guest memory.
//
// The model is deliberately faithful to the interface contract a device
// mediator depends on (paper §3.2): commands are issued by programming the
// LBA/count registers and writing the command register; status is polled
// or signalled by interrupt; DMA targets are described by a PRD table
// whose physical address sits in a bus-master register. BMcast's IDE
// mediator interprets, intercepts, and injects traffic at exactly this
// level.
package ide

import (
	"encoding/binary"
	"errors"

	"repro/internal/hw/disk"
	hwio "repro/internal/hw/io"
	"repro/internal/hw/mem"
	"repro/internal/sim"
)

// Command-block register offsets (from the command base, e.g. 0x1F0).
const (
	RegData        = 0 // 16-bit PIO data port
	RegErrFeature  = 1 // error (read) / features (write)
	RegSectorCount = 2
	RegLBALow      = 3
	RegLBAMid      = 4
	RegLBAHigh     = 5
	RegDevice      = 6
	RegStatusCmd   = 7 // status (read) / command (write)
)

// Control-block register offset (from the control base, e.g. 0x3F6).
const (
	RegDevControl = 0 // alt status (read) / device control (write)
)

// Device control bits.
const (
	CtlNIEN = 1 << 1 // disable interrupt generation
	CtlSRST = 1 << 2 // soft reset
)

// Status register bits.
const (
	StatusERR  = 1 << 0
	StatusDRQ  = 1 << 3
	StatusDF   = 1 << 5
	StatusDRDY = 1 << 6
	StatusBSY  = 1 << 7
)

// Device register bits.
const (
	DeviceLBA = 1 << 6
)

// ATA commands implemented by the model.
const (
	CmdReadDMA     = 0xC8
	CmdWriteDMA    = 0xCA
	CmdReadDMAExt  = 0x25
	CmdWriteDMAExt = 0x35
	CmdFlushCache  = 0xE7
	CmdIdentify    = 0xEC
)

// Bus-master register offsets (from the bus-master base).
const (
	BMRegCmd    = 0
	BMRegStatus = 2
	BMRegPRDT   = 4 // 32-bit PRD table physical address
)

// Bus-master command bits.
const (
	BMCmdStart = 1 << 0
	BMCmdRead  = 1 << 3 // direction: device-to-memory
)

// Bus-master status bits.
const (
	BMStatusActive = 1 << 0
	BMStatusError  = 1 << 1
	BMStatusIRQ    = 1 << 2
)

// PRDEntrySize is the size of one physical region descriptor.
const PRDEntrySize = 8

// PRDEOT marks the last PRD entry.
const PRDEOT = 1 << 15

// latched models the ATA "hob" register pair: writing pushes the current
// value to previous, which LBA48 commands consume as the high-order byte.
type latched struct{ cur, prev uint8 }

func (l *latched) write(v uint8) { l.prev, l.cur = l.cur, v }

// Controller is one IDE channel with one attached drive.
type Controller struct {
	Name string

	k      *sim.Kernel
	memory *mem.Memory
	drive  *disk.Device
	IRQ    *hwio.IRQ

	// Task file.
	feature latched
	count   latched
	lbaLow  latched
	lbaMid  latched
	lbaHigh latched
	device  uint8
	status  uint8
	errReg  uint8
	nIEN    bool

	// Bus master.
	bmCmd    uint8
	bmStatus uint8
	prdtAddr uint32

	// Pending command, set by a command-register write, consumed by the
	// engine once the bus master starts (or immediately for non-data
	// commands). The engine is a state machine run by kernel callbacks:
	// running is set from the step scheduled at issue or bus-master start
	// until the engine finds no command ready to run.
	pendingCmd  uint8
	pendingLBA  int64
	pendingN    int64
	pendingData bool
	running     bool

	// PIO data buffer for IDENTIFY.
	pioBuf []byte
	pioPos int

	dmaLabel string       // provenance name of gathered write data
	sg       []mem.Region // reusable decoded PRD table

	stepFn, doneFn func() // steps bound once at New

	// CmdLog counts executed commands by opcode, for tests and reports.
	CmdLog map[uint8]int64
}

// New creates a controller in front of drive, DMAing through memory and
// signalling through irq. Register it in an I/O space with Regions.
func New(k *sim.Kernel, name string, drive *disk.Device, memory *mem.Memory, irq *hwio.IRQ) *Controller {
	c := &Controller{
		Name:     name,
		k:        k,
		memory:   memory,
		drive:    drive,
		IRQ:      irq,
		status:   StatusDRDY,
		CmdLog:   make(map[uint8]int64),
		dmaLabel: name + ".dma",
	}
	c.stepFn, c.doneFn = c.step, c.done
	return c
}

// Drive exposes the attached disk device.
func (c *Controller) Drive() *disk.Device { return c.drive }

// cmdBlock, ctlBlock, and busMaster adapt the controller's three register
// banks to io.Handler.
type cmdBlock struct{ c *Controller }
type ctlBlock struct{ c *Controller }
type busMaster struct{ c *Controller }

// CmdBlock returns the command-block register bank (task file).
func (c *Controller) CmdBlock() hwio.Handler { return cmdBlock{c} }

// CtlBlock returns the control-block register bank.
func (c *Controller) CtlBlock() hwio.Handler { return ctlBlock{c} }

// BusMaster returns the bus-master DMA register bank.
func (c *Controller) BusMaster() hwio.Handler { return busMaster{c} }

// RegisterRegions registers the controller's three regions in ios using
// conventional legacy addresses offset by channel. It returns the region
// names for tap installation.
func (c *Controller) RegisterRegions(ios *hwio.Space) (cmd, ctl, bm string) {
	cmd, ctl, bm = c.Name+".cmd", c.Name+".ctl", c.Name+".bm"
	ios.Register(cmd, hwio.PIO, 0x1F0, 8, c.CmdBlock())
	ios.Register(ctl, hwio.PIO, 0x3F6, 1, c.CtlBlock())
	ios.Register(bm, hwio.PIO, 0xC000, 8, c.BusMaster())
	return cmd, ctl, bm
}

func (b cmdBlock) IORead(off int64, _ int) uint64 {
	c := b.c
	switch off {
	case RegData:
		if c.status&StatusDRQ != 0 && c.pioPos < len(c.pioBuf) {
			v := uint64(c.pioBuf[c.pioPos]) | uint64(c.pioBuf[c.pioPos+1])<<8
			c.pioPos += 2
			if c.pioPos >= len(c.pioBuf) {
				c.status &^= StatusDRQ
			}
			return v
		}
		return 0
	case RegErrFeature:
		return uint64(c.errReg)
	case RegSectorCount:
		return uint64(c.count.cur)
	case RegLBALow:
		return uint64(c.lbaLow.cur)
	case RegLBAMid:
		return uint64(c.lbaMid.cur)
	case RegLBAHigh:
		return uint64(c.lbaHigh.cur)
	case RegDevice:
		return uint64(c.device)
	case RegStatusCmd:
		return uint64(c.status)
	}
	return 0xFF
}

func (b cmdBlock) IOWrite(off int64, _ int, v uint64) {
	c := b.c
	x := uint8(v)
	switch off {
	case RegErrFeature:
		c.feature.write(x)
	case RegSectorCount:
		c.count.write(x)
	case RegLBALow:
		c.lbaLow.write(x)
	case RegLBAMid:
		c.lbaMid.write(x)
	case RegLBAHigh:
		c.lbaHigh.write(x)
	case RegDevice:
		c.device = x
	case RegStatusCmd:
		c.issue(x)
	}
}

func (b ctlBlock) IORead(_ int64, _ int) uint64 {
	return uint64(b.c.status) // alternate status
}

func (b ctlBlock) IOWrite(_ int64, _ int, v uint64) {
	c := b.c
	c.nIEN = v&CtlNIEN != 0
	if v&CtlSRST != 0 {
		c.reset()
	}
}

func (b busMaster) IORead(off int64, size int) uint64 {
	c := b.c
	switch off {
	case BMRegCmd:
		return uint64(c.bmCmd)
	case BMRegStatus:
		return uint64(c.bmStatus)
	case BMRegPRDT:
		return uint64(c.prdtAddr)
	}
	_ = size
	return 0xFF
}

func (b busMaster) IOWrite(off int64, _ int, v uint64) {
	c := b.c
	switch off {
	case BMRegCmd:
		was := c.bmCmd
		c.bmCmd = uint8(v)
		if was&BMCmdStart == 0 && c.bmCmd&BMCmdStart != 0 {
			c.bmStatus |= BMStatusActive
			c.kick()
		}
		if c.bmCmd&BMCmdStart == 0 {
			c.bmStatus &^= BMStatusActive
		}
	case BMRegStatus:
		// Writing 1 to the IRQ/error bits clears them.
		c.bmStatus &^= uint8(v) & (BMStatusIRQ | BMStatusError)
	case BMRegPRDT:
		c.prdtAddr = uint32(v)
	}
}

func (c *Controller) reset() {
	c.status = StatusDRDY
	c.errReg = 0
	c.pendingCmd = 0
	c.pioBuf = nil
	c.bmStatus = 0
	c.bmCmd = 0
}

// issue handles a command-register write.
func (c *Controller) issue(cmd uint8) {
	if c.status&StatusBSY != 0 {
		return // command register ignored while busy
	}
	c.errReg = 0
	switch cmd {
	case CmdReadDMA, CmdWriteDMA:
		c.pendingLBA = int64(c.lbaLow.cur) | int64(c.lbaMid.cur)<<8 |
			int64(c.lbaHigh.cur)<<16 | int64(c.device&0x0F)<<24
		c.pendingN = int64(c.count.cur)
		if c.pendingN == 0 {
			c.pendingN = 256
		}
		c.pendingCmd = cmd
		c.pendingData = true
		c.status = StatusBSY
		c.kick()
	case CmdReadDMAExt, CmdWriteDMAExt:
		c.pendingLBA = int64(c.lbaLow.cur) | int64(c.lbaMid.cur)<<8 | int64(c.lbaHigh.cur)<<16 |
			int64(c.lbaLow.prev)<<24 | int64(c.lbaMid.prev)<<32 | int64(c.lbaHigh.prev)<<40
		c.pendingN = int64(c.count.cur) | int64(c.count.prev)<<8
		if c.pendingN == 0 {
			c.pendingN = 65536
		}
		c.pendingCmd = cmd
		c.pendingData = true
		c.status = StatusBSY
		c.kick()
	case CmdFlushCache:
		c.pendingCmd = cmd
		c.pendingData = false
		c.status = StatusBSY
		c.kick()
	case CmdIdentify:
		c.pioBuf = c.identifyData()
		c.pioPos = 0
		c.status = StatusDRDY | StatusDRQ
		c.CmdLog[cmd]++
		c.raiseIRQ()
	default:
		c.errReg = 0x04 // ABRT
		c.status = StatusDRDY | StatusERR
		c.raiseIRQ()
	}
}

// identifyData builds a minimal IDENTIFY DEVICE block: enough for a driver
// to find the sector count and DMA capability.
func (c *Controller) identifyData() []byte {
	b := make([]byte, 512)
	sectors := c.drive.Sectors
	// Words 60-61: LBA28 capacity; words 100-103: LBA48 capacity.
	put16 := func(word int, v uint16) { b[word*2] = byte(v); b[word*2+1] = byte(v >> 8) }
	lba28 := sectors
	if lba28 > 0x0FFFFFFF {
		lba28 = 0x0FFFFFFF
	}
	put16(60, uint16(lba28))
	put16(61, uint16(lba28>>16))
	put16(83, 1<<10) // LBA48 supported
	for i := 0; i < 4; i++ {
		put16(100+i, uint16(sectors>>(16*i)))
	}
	return b
}

// kick schedules an engine step at the current instant unless one is
// pending or a command is executing: the engine re-checks for a ready
// command whenever a command write or bus-master start may have made one.
func (c *Controller) kick() {
	if !c.running {
		c.running = true
		c.k.After(0, c.stepFn)
	}
}

// ready reports whether the pending command can run: a data command waits
// for the bus master to start.
func (c *Controller) ready() bool {
	return c.pendingCmd != 0 && (!c.pendingData || c.bmCmd&BMCmdStart != 0)
}

// step runs ready commands until one has to wait for the drive or its
// service time; that command's completion step calls step again, so a
// command made ready meanwhile runs inline. With none ready, the engine
// goes idle until the next kick.
func (c *Controller) step() {
	for c.ready() {
		if c.execute() {
			return
		}
	}
	c.running = false
}

// execute starts the pending command. It reports whether the command is
// still in progress, with its completion step scheduled; otherwise it has
// completed. A PRD table or data buffer the guest placed outside memory
// fails the command with a bus-master error.
func (c *Controller) execute() bool {
	cmd := c.pendingCmd
	c.pendingCmd = 0
	c.CmdLog[cmd]++
	if cmd == CmdFlushCache {
		c.k.After(500*sim.Microsecond, c.doneFn)
		return true
	}
	write := cmd == CmdWriteDMA || cmd == CmdWriteDMAExt
	want := c.pendingN * disk.SectorSize
	var err error
	if c.sg, err = AppendPRDs(c.sg[:0], c.memory, int64(c.prdtAddr), want); err != nil || !c.memory.Reachable(c.sg, want) {
		c.errReg = 0x04 // ABRT
		c.complete(true)
		return false
	}
	if !c.drive.DMA(c.memory, c.sg, c.pendingLBA, c.pendingN, write, c.dmaLabel, c.doneFn) {
		c.errReg = 0x10 // IDNF
		c.complete(true)
		return false
	}
	return true
}

// done completes the executing command once its service time has passed.
func (c *Controller) done() {
	c.complete(false)
	c.step()
}

func (c *Controller) complete(isErr bool) {
	c.status = StatusDRDY
	if isErr {
		c.status |= StatusERR
		c.bmStatus |= BMStatusError
	}
	c.bmStatus &^= BMStatusActive
	c.bmStatus |= BMStatusIRQ
	c.raiseIRQ()
}

func (c *Controller) raiseIRQ() {
	if !c.nIEN {
		c.IRQ.Raise()
	}
}

// maxPRDs caps a PRD table walk: a guest table without an EOT entry ends
// here.
const maxPRDs = 4098

// ErrOutsideMemory reports a PRD table entry at a guest-set address
// outside memory. The controller fails such a command with a bus-master
// error.
var ErrOutsideMemory = errors.New("ide: PRD table outside memory")

// AppendPRDs decodes the PRD table at table in m onto dst, one region per
// entry (a zero byte count means 64 KiB), and returns the extended slice.
// The walk stops at the entry marked EOT, once the regions cover want
// bytes, or after maxPRDs entries; it always decodes the first entry. It
// fails with ErrOutsideMemory, leaving dst as it was, if an entry the
// walk reaches lies outside memory; the regions they name are not checked.
func AppendPRDs(dst []mem.Region, m *mem.Memory, table, want int64) ([]mem.Region, error) {
	orig := dst
	var e [PRDEntrySize]byte
	for i := 1; ; i++ {
		if !m.Contains(table, PRDEntrySize) {
			return orig, ErrOutsideMemory
		}
		m.ReadInto(table, e[:])
		size := int64(binary.LittleEndian.Uint16(e[4:]))
		if size == 0 {
			size = 65536
		}
		dst = append(dst, mem.Region{Start: int64(binary.LittleEndian.Uint32(e[0:])), Size: size})
		want -= size
		if binary.LittleEndian.Uint16(e[6:])&PRDEOT != 0 || want <= 0 || i == maxPRDs {
			return dst, nil
		}
		table += PRDEntrySize
	}
}

// WritePRDTable is a helper for drivers and mediators: it writes a PRD
// table at tableAddr describing a single contiguous buffer of size bytes
// at bufAddr, splitting into 64 KB entries.
func WritePRDTable(m *mem.Memory, tableAddr, bufAddr, size int64) {
	for size > 0 {
		chunk := int64(65536)
		if chunk > size {
			chunk = size
		}
		e := make([]byte, PRDEntrySize)
		e[0], e[1], e[2], e[3] = byte(bufAddr), byte(bufAddr>>8), byte(bufAddr>>16), byte(bufAddr>>24)
		cnt := uint16(chunk) // 65536 encodes as 0
		e[4], e[5] = byte(cnt), byte(cnt>>8)
		size -= chunk
		bufAddr += chunk
		if size == 0 {
			e[7] = byte(PRDEOT >> 8)
		}
		m.Write(tableAddr, e)
		tableAddr += PRDEntrySize
	}
}

// Busy reports whether the device is executing a command (BSY set).
func (c *Controller) Busy() bool { return c.status&StatusBSY != 0 }

// InterruptsDisabled reports the nIEN state.
func (c *Controller) InterruptsDisabled() bool { return c.nIEN }
