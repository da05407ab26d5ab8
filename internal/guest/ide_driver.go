package guest

import (
	"fmt"

	"repro/internal/hw/disk"
	"repro/internal/hw/ide"
	hwio "repro/internal/hw/io"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Guest-physical addresses the IDE driver allocates for its structures.
const (
	idePRDTable = 0x10000
	ideDMABuf   = 0x100000 // 1 MB bounce buffer
)

// Legacy port bases matching ide.Controller.RegisterRegions.
const (
	ideCmdBase = 0x1F0
	ideCtlBase = 0x3F6
	ideBMBase  = 0xC000
)

// IDEDriver drives the IDE controller through port I/O, one command at a
// time, waiting for completion interrupts.
type IDEDriver struct {
	m    *machine.Machine
	lock *sim.Resource
	done *sim.Signal

	irqSeen bool
	errSeen bool

	free []*ideCmd // pooled command records
}

// NewIDEDriver returns the guest's IDE driver for machine m.
func NewIDEDriver(m *machine.Machine) *IDEDriver {
	d := &IDEDriver{
		m:    m,
		lock: sim.NewResource(m.K, m.Name+".ide-drv", 1),
		done: m.K.NewSignal(m.Name + ".ide-drv.done"),
	}
	return d
}

// Name implements BlockDriver.
func (d *IDEDriver) Name() string { return "ide" }

func (d *IDEDriver) outb(p *sim.Proc, cause *trace.Span, addr int64, v uint64) {
	d.m.IO.Write(p, cause, hwio.PIO, addr, 1, v)
}

func (d *IDEDriver) inb(p *sim.Proc, cause *trace.Span, addr int64) uint64 {
	return d.m.IO.Read(p, cause, hwio.PIO, addr, 1)
}

// irqHandler is the driver's top half: acknowledge the controller and wake
// the waiting request. It runs in interrupt context (no proc).
func (d *IDEDriver) irqHandler() {
	status := d.m.IO.Read(nil, nil, hwio.PIO, ideCmdBase+ide.RegStatusCmd, 1)
	d.m.IO.Write(nil, nil, hwio.PIO, ideBMBase+ide.BMRegStatus, 1, ide.BMStatusIRQ)
	d.errSeen = status&ide.StatusERR != 0
	d.irqSeen = true
	d.done.Broadcast()
}

// Init implements BlockDriver: install the interrupt handler and IDENTIFY
// the drive.
func (d *IDEDriver) Init(p *sim.Proc, cause *trace.Span) error {
	d.m.StorageIRQ.SetHandler(d.irqHandler)
	d.irqSeen = false
	d.outb(p, cause, ideCmdBase+ide.RegStatusCmd, ide.CmdIdentify)
	p.WaitCond(d.done, func() bool { return d.irqSeen })
	if d.errSeen {
		return fmt.Errorf("guest/ide: identify failed")
	}
	var sectors int64
	words := make([]uint16, 256)
	for i := range words {
		words[i] = uint16(d.inb(p, cause, ideCmdBase+ide.RegData))
	}
	for i := 0; i < 4; i++ {
		sectors |= int64(words[100+i]) << (16 * i)
	}
	if sectors == 0 {
		return fmt.Errorf("guest/ide: drive reports no LBA48 capacity")
	}
	return nil
}

// Submit implements BlockDriver. Literal buffer payloads are copied
// through guest memory (the architectural path); other sources ride the
// DMA hint.
func (d *IDEDriver) Submit(r *Request) {
	if r.Op == OpFlush {
		c := d.newCmd(r)
		c.regs[0] = ioWrite{ideCmdBase + ide.RegStatusCmd, 1, ide.CmdFlushCache}
		c.n = 1
		c.step()
		return
	}
	if err := validateRange(r.LBA, r.Count); err != nil {
		r.Complete(nil, err)
		return
	}
	c := d.newCmd(r)
	if r.Op == OpRead {
		c.dma(ide.CmdReadDMAExt, nil, r.Discard, nil)
		return
	}
	if _, ok := r.Source.(*disk.Buffer); ok {
		pl := disk.Payload{LBA: r.LBA, Count: r.Count, Source: r.Source}
		c.dma(ide.CmdWriteDMAExt, nil, false, pl.Bytes())
		return
	}
	c.dma(ide.CmdWriteDMAExt, r.Source, false, nil)
}

// ioWrite is one register write of a command's programming sequence.
type ioWrite struct {
	addr int64
	size int
	v    uint64
}

// ideStep is where an IDE command's step function resumes.
type ideStep uint8

const (
	ideLock ideStep = iota // take the driver lock
	ideRegs                // program the registers
	ideWait                // wait for the completion interrupt
	ideEnd                 // complete the request
)

// ideCmd is one driver command in flight. It runs as kernel callbacks:
// it takes the driver lock, programs the task file and bus master one
// register write at a time (each a trap, stalling the guest for the
// exit, when a mediator is attached), waits for the completion interrupt
// and stops the bus master. Each wait is one scheduled step, in the
// (when, seq) slot the blocked process's wakeup used to take. Records are
// pooled per driver and their steps bound once.
type ideCmd struct {
	d       *IDEDriver
	req     *Request
	pc      ideStep
	opcode  uint8
	hintSrc disk.SectorSource
	discard bool
	literal []byte
	regs    [12]ioWrite
	n, next int
	stepFn  func()
	waiter  *sim.Waiter // lock and completion waits
}

func (d *IDEDriver) newCmd(r *Request) *ideCmd {
	var c *ideCmd
	if n := len(d.free) - 1; n >= 0 {
		c = d.free[n]
		d.free = d.free[:n]
	} else {
		c = &ideCmd{d: d}
		c.stepFn = c.step
		c.waiter = d.m.K.NewWaiter(c.woken)
	}
	c.req, c.pc, c.next, c.opcode = r, ideLock, 0, 0
	return c
}

func (d *IDEDriver) putCmd(c *ideCmd) {
	c.req, c.hintSrc, c.literal = nil, nil, nil
	d.free = append(d.free, c)
}

// dma starts a DMA command: the hint is applied once the lock is held, so
// concurrent requests cannot clobber each other's DMA hints.
func (c *ideCmd) dma(opcode uint8, hintSrc disk.SectorSource, discard bool, literal []byte) {
	r := c.req
	lba, count := r.LBA, r.Count
	c.opcode, c.hintSrc, c.discard, c.literal = opcode, hintSrc, discard, literal
	dir := uint64(0)
	if opcode == ide.CmdReadDMAExt {
		dir = ide.BMCmdRead
	}
	c.regs = [12]ioWrite{
		{ideBMBase + ide.BMRegPRDT, 4, idePRDTable},
		{ideCmdBase + ide.RegSectorCount, 1, uint64(count >> 8 & 0xFF)},
		{ideCmdBase + ide.RegSectorCount, 1, uint64(count & 0xFF)},
		{ideCmdBase + ide.RegLBALow, 1, uint64(lba >> 24 & 0xFF)},
		{ideCmdBase + ide.RegLBALow, 1, uint64(lba & 0xFF)},
		{ideCmdBase + ide.RegLBAMid, 1, uint64(lba >> 32 & 0xFF)},
		{ideCmdBase + ide.RegLBAMid, 1, uint64(lba >> 8 & 0xFF)},
		{ideCmdBase + ide.RegLBAHigh, 1, uint64(lba >> 40 & 0xFF)},
		{ideCmdBase + ide.RegLBAHigh, 1, uint64(lba >> 16 & 0xFF)},
		{ideCmdBase + ide.RegDevice, 1, ide.DeviceLBA},
		{ideCmdBase + ide.RegStatusCmd, 1, uint64(opcode)},
		{ideBMBase + ide.BMRegCmd, 1, ide.BMCmdStart | dir},
	}
	c.n = len(c.regs)
	c.step()
}

// woken continues the command after a lock or completion wait.
func (c *ideCmd) woken(bool) { c.step() }

// step runs the command until it waits or completes.
func (c *ideCmd) step() {
	d := c.d
	for {
		switch c.pc {
		case ideLock:
			if !d.lock.AcquireWait(c.waiter) {
				return
			}
			d.irqSeen = false
			if c.opcode != 0 {
				if c.literal != nil {
					d.m.Mem.Write(ideDMABuf, c.literal)
				}
				if c.hintSrc != nil || c.discard {
					d.m.Disk.SetNextDMA(ideDMABuf, c.hintSrc, c.discard)
				}
				ide.WritePRDTable(d.m.Mem, idePRDTable, ideDMABuf, c.req.Count*disk.SectorSize)
			}
			c.pc = ideRegs
		case ideRegs:
			for c.next < c.n {
				w := &c.regs[c.next]
				c.next++
				if !d.m.IO.WriteAsync(hwio.PIO, w.addr, w.size, w.v, c.req.Cause, c.stepFn) {
					return // the write trapped: the stall's end continues here
				}
			}
			c.pc = ideWait
		case ideWait:
			if !d.irqSeen {
				c.waiter.Wait(d.done)
				return
			}
			c.pc = ideEnd
			if c.opcode != 0 && !d.m.IO.WriteAsync(hwio.PIO, ideBMBase+ide.BMRegCmd, 1, 0, c.req.Cause, c.stepFn) {
				return
			}
		case ideEnd:
			c.end()
			return
		}
	}
}

// end completes the request: the lock is released before a read's data
// is copied out of the bounce buffer, in the same event.
func (c *ideCmd) end() {
	d, r := c.d, c.req
	var err error
	if d.errSeen {
		if c.opcode == 0 {
			err = fmt.Errorf("guest/ide: flush failed")
		} else {
			err = fmt.Errorf("guest/ide: command %#x at lba %d failed", c.opcode, r.LBA)
		}
	}
	d.lock.Release()
	var data []byte
	if err == nil && c.opcode == ide.CmdReadDMAExt && !c.discard {
		data = d.m.Mem.Read(ideDMABuf, r.Count*disk.SectorSize)
	}
	d.putCmd(c)
	r.Complete(data, err)
}
