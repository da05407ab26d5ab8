package guest

import (
	"fmt"

	"repro/internal/hw/ahci"
	"repro/internal/hw/disk"
	hwio "repro/internal/hw/io"
	"repro/internal/hw/mem"
	"repro/internal/machine"
	"repro/internal/sim"
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

func (d *AHCIDriver) mmw(p *sim.Proc, off int64, v uint64) {
	d.m.IO.Write(p, hwio.MMIO, ahci.ABAR+off, 4, v)
}

func (d *AHCIDriver) mmr(p *sim.Proc, off int64) uint64 {
	return d.m.IO.Read(p, hwio.MMIO, ahci.ABAR+off, 4)
}

// irqHandler acknowledges completions and wakes slot waiters. It runs in
// interrupt context.
func (d *AHCIDriver) irqHandler() {
	is := d.m.IO.Read(nil, hwio.MMIO, ahci.ABAR+ahci.PortBase+ahci.PxIS, 4)
	if is == 0 {
		return
	}
	d.m.IO.Write(nil, hwio.MMIO, ahci.ABAR+ahci.PortBase+ahci.PxIS, 4, is)
	d.m.IO.Write(nil, hwio.MMIO, ahci.ABAR+ahci.RegIS, 4, 1)
	ci := d.m.IO.Read(nil, hwio.MMIO, ahci.ABAR+ahci.PortBase+ahci.PxCI, 4)
	tfd := d.m.IO.Read(nil, hwio.MMIO, ahci.ABAR+ahci.PortBase+ahci.PxTFD, 4)
	for slot := 0; slot < ahciSlotCount; slot++ {
		if !d.slotFree[slot] && !d.slotDone[slot] && ci&(1<<slot) == 0 {
			d.slotDone[slot] = true
			d.slotErr[slot] = tfd&ahci.TFDErr != 0
		}
	}
	d.doneSig.Broadcast()
}

// Init implements BlockDriver: bring the port up and IDENTIFY the drive.
func (d *AHCIDriver) Init(p *sim.Proc) error {
	d.m.StorageIRQ.SetHandler(d.irqHandler)
	d.mmw(p, ahci.RegGHC, ahci.GHCAHCIEnable|ahci.GHCInterruptEnable)
	d.mmw(p, ahci.PortBase+ahci.PxCLB, ahciCLB)
	d.mmw(p, ahci.PortBase+ahci.PxCLBU, 0)
	d.mmw(p, ahci.PortBase+ahci.PxFB, ahciFISBase)
	d.mmw(p, ahci.PortBase+ahci.PxFBU, 0)
	d.mmw(p, ahci.PortBase+ahci.PxIE, ahci.ISDHRS|ahci.ISTFES)
	d.mmw(p, ahci.PortBase+ahci.PxCMD, ahci.CmdST|ahci.CmdFRE)
	if _, err := d.command(p, ahci.CmdIdentify, 0, 1, false, nil, false, nil); err != nil {
		return fmt.Errorf("guest/ahci: identify failed: %w", err)
	}
	return nil
}

func (d *AHCIDriver) allocSlot(p *sim.Proc) int {
	for {
		for s := 0; s < ahciSlotCount; s++ {
			if d.slotFree[s] {
				d.slotFree[s] = false
				d.slotDone[s] = false
				d.slotErr[s] = false
				return s
			}
		}
		p.Wait(d.freeSig)
	}
}

func (d *AHCIDriver) releaseSlot(s int) {
	d.slotFree[s] = true
	d.freeSig.Broadcast()
}

// command issues one command in a free slot and waits for its completion.
// A read that is not discarded returns its data, copied out of the slot's
// buffer before the slot is released.
func (d *AHCIDriver) command(p *sim.Proc, cmd uint8, lba, count int64, write bool, hintSrc disk.SectorSource, hintDiscard bool, literal []byte) ([]byte, error) {
	slot := d.allocSlot(p)
	defer d.releaseSlot(slot)

	ctba := uint64(ahciCTBABase + slot*0x200)
	buf := int64(ahciBufBase + slot*(MaxTransferSectors*disk.SectorSize))
	if literal != nil {
		d.m.Mem.Write(buf, literal)
	}
	ahci.WriteFIS(d.m.Mem, ctba, ahci.FIS{Command: cmd, LBA: lba, Count: count})
	ahci.WritePRDT(d.m.Mem, ctba, []mem.Region{{Start: buf, Size: count * disk.SectorSize}})
	ahci.WriteCmdHeader(d.m.Mem, ahciCLB, slot, ahci.CmdHeader{
		FISLen: 5, Write: write, PRDTL: 1, CTBA: ctba,
	})

	if hintSrc != nil || hintDiscard {
		d.m.Disk.SetNextDMA(buf, hintSrc, hintDiscard)
	}
	d.mmw(p, ahci.PortBase+ahci.PxCI, 1<<slot)

	p.WaitCond(d.doneSig, func() bool { return d.slotDone[slot] })
	if d.slotErr[slot] {
		return nil, fmt.Errorf("guest/ahci: command %#x at lba %d failed", cmd, lba)
	}
	if cmd != ahci.CmdReadDMAExt || hintDiscard {
		return nil, nil
	}
	return d.m.Mem.Read(buf, count*disk.SectorSize), nil
}

// ReadSectors implements BlockDriver.
func (d *AHCIDriver) ReadSectors(p *sim.Proc, lba, count int64, discard bool) ([]byte, error) {
	if err := validateRange(lba, count); err != nil {
		return nil, err
	}
	return d.command(p, ahci.CmdReadDMAExt, lba, count, false, nil, discard, nil)
}

// WriteSectors implements BlockDriver.
func (d *AHCIDriver) WriteSectors(p *sim.Proc, payload disk.Payload) error {
	if err := validateRange(payload.LBA, payload.Count); err != nil {
		return err
	}
	src, literal := payload.Source, []byte(nil)
	if _, ok := src.(*disk.Buffer); ok {
		src, literal = nil, payload.Bytes()
	}
	_, err := d.command(p, ahci.CmdWriteDMAExt, payload.LBA, payload.Count, true, src, false, literal)
	return err
}

// Flush implements BlockDriver.
func (d *AHCIDriver) Flush(p *sim.Proc) error {
	_, err := d.command(p, ahci.CmdFlushCache, 0, 1, false, nil, false, nil)
	return err
}
