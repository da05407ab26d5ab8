package guest

import (
	"fmt"

	"repro/internal/hw/disk"
	"repro/internal/hw/ide"
	hwio "repro/internal/hw/io"
	"repro/internal/machine"
	"repro/internal/sim"
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

func (d *IDEDriver) outb(p *sim.Proc, addr int64, v uint64) {
	d.m.IO.Write(p, hwio.PIO, addr, 1, v)
}

func (d *IDEDriver) inb(p *sim.Proc, addr int64) uint64 {
	return d.m.IO.Read(p, hwio.PIO, addr, 1)
}

// irqHandler is the driver's top half: acknowledge the controller and wake
// the waiting request. It runs in interrupt context (no proc).
func (d *IDEDriver) irqHandler() {
	status := d.m.IO.Read(nil, hwio.PIO, ideCmdBase+ide.RegStatusCmd, 1)
	d.m.IO.Write(nil, hwio.PIO, ideBMBase+ide.BMRegStatus, 1, ide.BMStatusIRQ)
	d.errSeen = status&ide.StatusERR != 0
	d.irqSeen = true
	d.done.Broadcast()
}

// Init implements BlockDriver: install the interrupt handler and IDENTIFY
// the drive.
func (d *IDEDriver) Init(p *sim.Proc) error {
	d.m.StorageIRQ.SetHandler(d.irqHandler)
	d.irqSeen = false
	d.outb(p, ideCmdBase+ide.RegStatusCmd, ide.CmdIdentify)
	p.WaitCond(d.done, func() bool { return d.irqSeen })
	if d.errSeen {
		return fmt.Errorf("guest/ide: identify failed")
	}
	var sectors int64
	words := make([]uint16, 256)
	for i := range words {
		words[i] = uint16(d.inb(p, ideCmdBase+ide.RegData))
	}
	for i := 0; i < 4; i++ {
		sectors |= int64(words[100+i]) << (16 * i)
	}
	if sectors == 0 {
		return fmt.Errorf("guest/ide: drive reports no LBA48 capacity")
	}
	return nil
}

// command runs one DMA command to completion under the driver lock.
// hintSrc/hintDiscard are applied once the lock is held so concurrent
// requests cannot clobber each other's DMA hints.
func (d *IDEDriver) command(p *sim.Proc, cmd uint8, lba, count int64, write bool, hintSrc disk.SectorSource, hintDiscard bool, literal []byte) error {
	d.lock.Acquire(p)
	defer d.lock.Release()
	d.irqSeen = false
	if literal != nil {
		d.m.Mem.Write(ideDMABuf, literal)
	}
	if hintSrc != nil || hintDiscard {
		d.m.Disk.SetNextDMA(ideDMABuf, hintSrc, hintDiscard)
	}

	ide.WritePRDTable(d.m.Mem, idePRDTable, ideDMABuf, count*disk.SectorSize)
	d.m.IO.Write(p, hwio.PIO, ideBMBase+ide.BMRegPRDT, 4, idePRDTable)
	d.outb(p, ideCmdBase+ide.RegSectorCount, uint64(count>>8&0xFF))
	d.outb(p, ideCmdBase+ide.RegSectorCount, uint64(count&0xFF))
	d.outb(p, ideCmdBase+ide.RegLBALow, uint64(lba>>24&0xFF))
	d.outb(p, ideCmdBase+ide.RegLBALow, uint64(lba&0xFF))
	d.outb(p, ideCmdBase+ide.RegLBAMid, uint64(lba>>32&0xFF))
	d.outb(p, ideCmdBase+ide.RegLBAMid, uint64(lba>>8&0xFF))
	d.outb(p, ideCmdBase+ide.RegLBAHigh, uint64(lba>>40&0xFF))
	d.outb(p, ideCmdBase+ide.RegLBAHigh, uint64(lba>>16&0xFF))
	d.outb(p, ideCmdBase+ide.RegDevice, ide.DeviceLBA)
	d.outb(p, ideCmdBase+ide.RegStatusCmd, uint64(cmd))
	dir := uint64(0)
	if !write {
		dir = ide.BMCmdRead
	}
	d.outb(p, ideBMBase+ide.BMRegCmd, ide.BMCmdStart|dir)

	p.WaitCond(d.done, func() bool { return d.irqSeen })
	d.outb(p, ideBMBase+ide.BMRegCmd, 0)
	if d.errSeen {
		return fmt.Errorf("guest/ide: command %#x at lba %d failed", cmd, lba)
	}
	return nil
}

// ReadSectors implements BlockDriver.
func (d *IDEDriver) ReadSectors(p *sim.Proc, lba, count int64, discard bool) ([]byte, error) {
	if err := validateRange(lba, count); err != nil {
		return nil, err
	}
	if err := d.command(p, ide.CmdReadDMAExt, lba, count, false, nil, discard, nil); err != nil {
		return nil, err
	}
	if discard {
		return nil, nil
	}
	return d.m.Mem.Read(ideDMABuf, count*disk.SectorSize), nil
}

// WriteSectors implements BlockDriver. Literal buffer payloads are copied
// through guest memory (the architectural path); other sources ride the
// DMA hint.
func (d *IDEDriver) WriteSectors(p *sim.Proc, payload disk.Payload) error {
	if err := validateRange(payload.LBA, payload.Count); err != nil {
		return err
	}
	if _, ok := payload.Source.(*disk.Buffer); ok {
		return d.command(p, ide.CmdWriteDMAExt, payload.LBA, payload.Count, true, nil, false, payload.Bytes())
	}
	return d.command(p, ide.CmdWriteDMAExt, payload.LBA, payload.Count, true, payload.Source, false, nil)
}

// Flush implements BlockDriver.
func (d *IDEDriver) Flush(p *sim.Proc) error {
	d.lock.Acquire(p)
	defer d.lock.Release()
	d.irqSeen = false
	d.outb(p, ideCmdBase+ide.RegStatusCmd, ide.CmdFlushCache)
	p.WaitCond(d.done, func() bool { return d.irqSeen })
	if d.errSeen {
		return fmt.Errorf("guest/ide: flush failed")
	}
	return nil
}
