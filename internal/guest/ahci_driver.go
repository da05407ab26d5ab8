package guest

import (
	"fmt"

	"repro/internal/hw/ahci"
	"repro/internal/hw/disk"
	hwio "repro/internal/hw/io"
	"repro/internal/hw/mem"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Guest-physical addresses the AHCI driver allocates for its structures.
const (
	ahciFISBase   = 0x3000
	ahciCLB       = 0x4000
	ahciCTBABase  = 0x8000   // one 0x200-byte command table per slot
	ahciBufBase   = 0x400000 // one 1 MB DMA buffer per slot
	ahciSlotCount = 8        // slots this driver uses concurrently
)

// AHCIDriver drives the AHCI HBA through MMIO: per-command slots with
// command tables and PRDTs built in guest memory, completion by interrupt.
type AHCIDriver struct {
	m    *machine.Machine
	port int64 // port 0 register base in the MMIO space

	slotFree [ahciSlotCount]bool
	slotDone [ahciSlotCount]bool
	slotErr  [ahciSlotCount]bool
	freeSig  *sim.Signal
	doneSig  *sim.Signal

	free []*ahciCmd // pooled command records
}

// NewAHCIDriver returns the guest's AHCI driver for machine m.
func NewAHCIDriver(m *machine.Machine) *AHCIDriver {
	d := &AHCIDriver{
		m:       m,
		port:    ahci.ABAR + ahci.PortBase,
		freeSig: m.K.NewSignal(m.Name + ".ahci-drv.free"),
		doneSig: m.K.NewSignal(m.Name + ".ahci-drv.done"),
	}
	for i := range d.slotFree {
		d.slotFree[i] = true
	}
	return d
}

// Name implements BlockDriver.
func (d *AHCIDriver) Name() string { return "ahci" }

func (d *AHCIDriver) mmw(p *sim.Proc, cause *trace.Span, off int64, v uint64) {
	d.m.IO.Write(p, cause, hwio.MMIO, ahci.ABAR+off, 4, v)
}

// irqHandler acknowledges completions and wakes slot waiters. It runs in
// interrupt context.
func (d *AHCIDriver) irqHandler() {
	is := d.m.IO.Read(nil, nil, hwio.MMIO, ahci.ABAR+ahci.PortBase+ahci.PxIS, 4)
	if is == 0 {
		return
	}
	d.m.IO.Write(nil, nil, hwio.MMIO, ahci.ABAR+ahci.PortBase+ahci.PxIS, 4, is)
	d.m.IO.Write(nil, nil, hwio.MMIO, ahci.ABAR+ahci.RegIS, 4, 1)
	ci := d.m.IO.Read(nil, nil, hwio.MMIO, ahci.ABAR+ahci.PortBase+ahci.PxCI, 4)
	tfd := d.m.IO.Read(nil, nil, hwio.MMIO, ahci.ABAR+ahci.PortBase+ahci.PxTFD, 4)
	for slot := 0; slot < ahciSlotCount; slot++ {
		if !d.slotFree[slot] && !d.slotDone[slot] && ci&(1<<slot) == 0 {
			d.slotDone[slot] = true
			d.slotErr[slot] = tfd&ahci.TFDErr != 0
		}
	}
	d.doneSig.Broadcast()
}

// Init implements BlockDriver: bring the port up and IDENTIFY the drive.
func (d *AHCIDriver) Init(p *sim.Proc, cause *trace.Span) error {
	d.m.StorageIRQ.SetHandler(d.irqHandler)
	d.mmw(p, cause, ahci.RegGHC, ahci.GHCAHCIEnable|ahci.GHCInterruptEnable)
	d.mmw(p, cause, ahci.PortBase+ahci.PxCLB, ahciCLB)
	d.mmw(p, cause, ahci.PortBase+ahci.PxCLBU, 0)
	d.mmw(p, cause, ahci.PortBase+ahci.PxFB, ahciFISBase)
	d.mmw(p, cause, ahci.PortBase+ahci.PxFBU, 0)
	d.mmw(p, cause, ahci.PortBase+ahci.PxIE, ahci.ISDHRS|ahci.ISTFES)
	d.mmw(p, cause, ahci.PortBase+ahci.PxCMD, ahci.CmdST|ahci.CmdFRE)
	r := &Request{Cause: cause, Done: p.Resume}
	d.start(r, ahci.CmdIdentify, 0, 1, false, nil, false, nil)
	p.Suspend()
	if r.Err != nil {
		return fmt.Errorf("guest/ahci: identify failed: %w", r.Err)
	}
	return nil
}

// Submit implements BlockDriver.
func (d *AHCIDriver) Submit(r *Request) {
	if r.Op == OpFlush {
		d.start(r, ahci.CmdFlushCache, 0, 1, false, nil, false, nil)
		return
	}
	if err := validateRange(r.LBA, r.Count); err != nil {
		r.Complete(nil, err)
		return
	}
	if r.Op == OpRead {
		d.start(r, ahci.CmdReadDMAExt, r.LBA, r.Count, false, nil, r.Discard, nil)
		return
	}
	src, literal := r.Source, []byte(nil)
	if _, ok := src.(*disk.Buffer); ok {
		pl := disk.Payload{LBA: r.LBA, Count: r.Count, Source: src}
		src, literal = nil, pl.Bytes()
	}
	d.start(r, ahci.CmdWriteDMAExt, r.LBA, r.Count, true, src, false, literal)
}

// ahciCmd is one driver command in flight. It runs as kernel callbacks:
// it waits for a free slot, builds the command in guest memory, issues it
// with a PxCI write (a trap, stalling the guest for the exit, when a
// mediator is attached) and waits for its completion interrupt. Each wait
// is one scheduled step, in the (when, seq) slot the blocked process's
// wakeup used to take. Records are pooled per driver and their steps
// bound once.
type ahciCmd struct {
	d          *AHCIDriver
	req        *Request
	opcode     uint8
	lba, count int64
	write      bool
	hintSrc    disk.SectorSource
	discard    bool
	literal    []byte
	slot       int // -1 until a slot is allocated
	prd        [1]mem.Region
	stepFn     func()
	waiter     *sim.Waiter // slot and completion waits
}

// start runs one command in a free slot for r. A read that is not
// discarded completes with its data, copied out of the slot's buffer
// before the slot is released.
func (d *AHCIDriver) start(r *Request, opcode uint8, lba, count int64, write bool, hintSrc disk.SectorSource, discard bool, literal []byte) {
	var c *ahciCmd
	if n := len(d.free) - 1; n >= 0 {
		c = d.free[n]
		d.free = d.free[:n]
	} else {
		c = &ahciCmd{d: d}
		c.stepFn = c.step
		c.waiter = d.m.K.NewWaiter(c.woken)
	}
	c.req, c.opcode, c.lba, c.count, c.write = r, opcode, lba, count, write
	c.hintSrc, c.discard, c.literal, c.slot = hintSrc, discard, literal, -1
	c.step()
}

// woken continues the command after a slot or completion wait.
func (c *ahciCmd) woken(bool) { c.step() }

// step runs the command until it waits or completes.
func (c *ahciCmd) step() {
	d := c.d
	if c.slot < 0 {
		if c.slot = d.allocSlot(); c.slot < 0 {
			c.waiter.Wait(d.freeSig)
			return
		}
		if !d.issue(c) {
			return // the PxCI write trapped: the stall's end continues here
		}
	}
	if !d.slotDone[c.slot] {
		c.waiter.Wait(d.doneSig)
		return
	}
	var data []byte
	var err error
	if d.slotErr[c.slot] {
		err = fmt.Errorf("guest/ahci: command %#x at lba %d failed", c.opcode, c.lba)
	} else if c.opcode == ahci.CmdReadDMAExt && !c.discard {
		data = d.m.Mem.Read(d.slotBuf(c.slot), c.count*disk.SectorSize)
	}
	d.releaseSlot(c.slot)
	r := c.req
	c.req, c.hintSrc, c.literal = nil, nil, nil
	d.free = append(d.free, c)
	r.Complete(data, err)
}

// slotBuf is slot s's DMA buffer.
func (d *AHCIDriver) slotBuf(s int) int64 {
	return int64(ahciBufBase + s*(MaxTransferSectors*disk.SectorSize))
}

// issue builds c's command in its slot and writes PxCI. It reports
// whether the write took effect at once.
func (d *AHCIDriver) issue(c *ahciCmd) bool {
	slot := c.slot
	ctba := uint64(ahciCTBABase + slot*0x200)
	buf := d.slotBuf(slot)
	if c.literal != nil {
		d.m.Mem.Write(buf, c.literal)
	}
	ahci.WriteFIS(d.m.Mem, ctba, ahci.FIS{Command: c.opcode, LBA: c.lba, Count: c.count})
	c.prd[0] = mem.Region{Start: buf, Size: c.count * disk.SectorSize}
	ahci.WritePRDT(d.m.Mem, ctba, c.prd[:])
	ahci.WriteCmdHeader(d.m.Mem, ahciCLB, slot, ahci.CmdHeader{
		FISLen: 5, Write: c.write, PRDTL: 1, CTBA: ctba,
	})
	if c.hintSrc != nil || c.discard {
		d.m.Disk.SetNextDMA(buf, c.hintSrc, c.discard)
	}
	return d.m.IO.WriteAsync(hwio.MMIO, ahci.ABAR+ahci.PortBase+ahci.PxCI, 4, 1<<slot, c.req.Cause, c.stepFn)
}

// allocSlot takes a free slot, or returns -1 if none is free.
func (d *AHCIDriver) allocSlot() int {
	for s := 0; s < ahciSlotCount; s++ {
		if d.slotFree[s] {
			d.slotFree[s] = false
			d.slotDone[s] = false
			d.slotErr[s] = false
			return s
		}
	}
	return -1
}

func (d *AHCIDriver) releaseSlot(s int) {
	d.slotFree[s] = true
	d.freeSig.Broadcast()
}
