package mediator

import (
	"fmt"

	"repro/internal/cpuvirt"
	"repro/internal/hw/ahci"
	"repro/internal/hw/disk"
	hwio "repro/internal/hw/io"
	"repro/internal/hw/mem"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// vmmSlot is the command slot the mediator reserves for its own requests.
// Guest drivers allocate from the low slots; the mediator's emulated PxCI
// always hides this bit from the guest.
const vmmSlot = 31

// AHCI is the device mediator for the AHCI HBA. It interprets the in-
// memory command list the guest builds (paper §3.2: "in association with
// in-memory data structures including queues"), intercepts PxCI writes,
// and emulates PxCI/status reads while it holds the device.
type AHCI struct {
	pipeline
	hba *ahci.HBA

	attached bool
	vmmDepth int // >0: the VMM owns the device; guest issues are queued

	// Shadows from interpretation.
	shCLB  uint64
	shGHC  uint32
	shPxIE uint32

	heldCI    uint32 // guest slots queued during VMM ownership
	redirCI   uint32 // guest slots being served by redirection
	queuedCmd []command

	dev       hwio.Handler // the HBA's registers, bypassing the tap
	vmmRegion mem.Region
	dummyLBA  int64

	// VirtualIRQ selects the rejected design alternative for the
	// ablation benchmark (see IDE.VirtualIRQ). The mediator must then
	// also emulate PxIS for the slots it completed virtually.
	VirtualIRQ bool
	virtIS     uint32
}

// VMM scratch layout within the reserved region (after the IDE offsets so
// one region can serve either mediator).
const (
	vmmCTBAOff = 0x4000
)

// NewAHCI builds the mediator for machine m (which must use AHCI storage).
func NewAHCI(m *machine.Machine, backend Backend, vmmRegion mem.Region) *AHCI {
	if m.AHCI == nil {
		panic("mediator: machine has no AHCI controller")
	}
	md := &AHCI{
		hba:       m.AHCI,
		dev:       m.IO.Lookup(m.AHCI.Name + ".abar").Device(),
		vmmRegion: vmmRegion,
		dummyLBA:  m.Disk.Sectors - 1,
	}
	md.pipeline = newPipeline(m, backend, md)
	return md
}

// Attach implements Mediator.
func (md *AHCI) Attach() {
	md.m.IO.SetTap(md.hba.Name+".abar", md)
	md.attached = true
}

// Detach implements Mediator.
func (md *AHCI) Detach() {
	if !md.Quiesced() {
		panic("mediator: detach with mediation in flight")
	}
	md.m.IO.SetTap(md.hba.Name+".abar", nil)
	md.attached = false
}

// Quiesced implements Mediator.
func (md *AHCI) Quiesced() bool {
	return md.vmmDepth == 0 && md.heldCI == 0 && md.redirCI == 0 &&
		len(md.queuedCmd) == 0 && md.devLock.InUse() == 0
}

// Trap implements io.Tap: a guest access to the ABAR page is an MMIO exit.
func (md *AHCI) Trap(*hwio.Region) sim.Duration { return md.m.World.Charge(cpuvirt.ExitMMIO) }

// TapRead implements io.Tap: PxCI emulation hides the VMM slot and keeps
// held/redirected guest slots visibly "in flight".
func (md *AHCI) TapRead(_ *hwio.Region, off int64, size int, _ *trace.Span) (uint64, bool) {
	switch off {
	case ahci.PortBase + ahci.PxCI:
		real := uint32(md.dev.IORead(off, size))
		return uint64(real&^(1<<vmmSlot) | md.heldCI | md.redirCI), true
	case ahci.PortBase + ahci.PxIS:
		if md.virtIS != 0 {
			real := uint32(md.dev.IORead(off, size))
			return uint64(real | md.virtIS), true
		}
	}
	return 0, false
}

// TapWrite implements io.Tap: interpretation of command issues.
func (md *AHCI) TapWrite(_ *hwio.Region, off int64, size int, v uint64, cause *trace.Span) bool {
	switch off {
	case ahci.RegGHC:
		md.shGHC = uint32(v)
	case ahci.PortBase + ahci.PxCLB:
		md.shCLB = md.shCLB&^0xFFFFFFFF | v&0xFFFFFFFF
	case ahci.PortBase + ahci.PxCLBU:
		md.shCLB = md.shCLB&0xFFFFFFFF | v<<32
	case ahci.PortBase + ahci.PxIS:
		md.virtIS &^= uint32(v) // guest acks virtual completions too
	case ahci.PortBase + ahci.PxIE:
		md.shPxIE = uint32(v)
		if md.vmmDepth > 0 {
			return true // VMM holds the real PxIE masked
		}
	case ahci.PortBase + ahci.PxCI:
		return md.onGuestIssue(cause, uint32(v))
	}
	return false
}

// onGuestIssue interprets newly issued slots; it reports whether the
// hardware write was swallowed (always true: pass-through bits are
// re-issued selectively).
func (md *AHCI) onGuestIssue(cause *trace.Span, ci uint32) bool {
	var passMask uint32
	for slot := 0; slot < ahci.NumSlots; slot++ {
		if ci&(1<<slot) == 0 {
			continue
		}
		cmd := md.interpret(slot)
		md.intercept(cause, &cmd)
		if md.vmmDepth > 0 {
			md.stats.QueuedCommands.Inc()
			md.heldCI |= 1 << slot
			md.queuedCmd = append(md.queuedCmd, cmd)
			continue
		}
		if md.route(cmd) {
			continue // mediator took the slot over
		}
		passMask |= 1 << slot
	}
	if passMask != 0 {
		md.dev.IOWrite(ahci.PortBase+ahci.PxCI, 4, uint64(passMask))
	}
	return true
}

// interpret parses the guest's command structures out of guest memory —
// the I/O interpretation step. A header, table or data buffer the guest
// placed outside memory makes it not a data command: the device faults it.
func (md *AHCI) interpret(slot int) command {
	cmd := command{slot: slot}
	hd, err := ahci.ReadCmdHeader(md.m.Mem, md.shCLB, slot)
	if err != nil {
		return cmd
	}
	cmd.ctba, cmd.prdtl = hd.CTBA, hd.PRDTL
	if md.sg, err = ahci.AppendPRDs(md.sg[:0], md.m.Mem, hd.CTBA, hd.PRDTL); err != nil {
		return cmd
	}
	// Data information: the guest DMA buffer from the first PRDT entry.
	if len(md.sg) > 0 {
		cmd.bufAddr = md.sg[0].Start
	}
	fis, err := ahci.ReadFIS(md.m.Mem, hd.CTBA)
	if err != nil {
		return cmd // not a data command; let the device fault it
	}
	cmd.opcode = fis.Command
	cmd.lba, cmd.count = fis.LBA, fis.Count
	switch fis.Command {
	case ahci.CmdReadDMAExt, ahci.CmdWriteDMAExt:
		cmd.data = md.m.Mem.Reachable(md.sg, fis.Count*disk.SectorSize)
		cmd.write = fis.Command == ahci.CmdWriteDMAExt
	}
	return cmd
}

// take implements controller: switch to ownership mode and wait for
// in-flight guest commands to drain ("1. Find"). Redirects and insertions
// take the device alike.
func (md *AHCI) take(o *op, _ bool) bool {
	if o.sub == 0 {
		md.vmmDepth++
		o.sub = 1
	}
	ci := uint32(md.dev.IORead(ahci.PortBase+ahci.PxCI, 4))
	if ci != 0 || md.hba.Busy() {
		md.stats.Polls.Inc()
		md.m.World.Exit(nil, cpuvirt.ExitPreemptionTimer)
		o.sleep(md.backend.PollInterval())
		return false
	}
	o.sub = 0
	return true
}

// own implements controller: take already queues guest issues.
func (md *AHCI) own() {}

// give implements controller: return the device to the guest and replay
// held commands.
func (md *AHCI) give(bool) {
	md.vmmDepth--
	if md.vmmDepth == 0 {
		queued := md.queuedCmd
		md.queuedCmd = nil
		var passMask uint32
		for _, cmd := range queued {
			md.heldCI &^= 1 << cmd.slot
			if !md.route(cmd) {
				passMask |= 1 << cmd.slot
			}
		}
		if passMask != 0 {
			md.dev.IOWrite(ahci.PortBase+ahci.PxCI, 4, uint64(passMask))
		}
	}
}

// transfer implements controller: one VMM command through the reserved
// slot with port interrupts masked, polling for completion ("2. Request").
func (md *AHCI) transfer(o *op, write bool, payload disk.Payload) bool {
	if o.sub == 0 {
		md.issue(write, payload, false)
		o.sub = 1
	}
	if md.vmmBusy() {
		md.stats.Polls.Inc()
		md.m.World.Exit(nil, cpuvirt.ExitPreemptionTimer)
		md.m.World.RecordVMMWork(2 * sim.Microsecond)
		o.sleep(md.backend.PollInterval())
		return false
	}
	// Quietly acknowledge the completion the VMM caused, then restore
	// the guest's interrupt enable.
	md.dev.IOWrite(ahci.PortBase+ahci.PxIS, 4, uint64(ahci.ISDHRS))
	md.dev.IOWrite(ahci.PortBase+ahci.PxIE, 4, uint64(md.shPxIE))
	o.sub = 0
	return true
}

// takeOver implements controller: the slot stays visibly in flight.
func (md *AHCI) takeOver(cmd command) { md.redirCI |= 1 << cmd.slot }

// issue programs one VMM command into the reserved slot and issues it.
// keepIRQ leaves the guest's port interrupts enabled, so the completion
// interrupts the guest; otherwise they are masked.
func (md *AHCI) issue(write bool, payload disk.Payload, keepIRQ bool) {
	ctba := uint64(md.vmmRegion.Start + vmmCTBAOff)
	buf := md.vmmRegion.Start + vmmBufOff
	opcode := uint8(ahci.CmdReadDMAExt)
	if write {
		opcode = ahci.CmdWriteDMAExt
	}
	ahci.WriteFIS(md.m.Mem, ctba, ahci.FIS{Command: opcode, LBA: payload.LBA, Count: payload.Count})
	ahci.WritePRDT(md.m.Mem, ctba, []mem.Region{{Start: buf, Size: payload.Count * disk.SectorSize}})
	ahci.WriteCmdHeader(md.m.Mem, md.shCLB, vmmSlot, ahci.CmdHeader{
		FISLen: 5, Write: write, PRDTL: 1, CTBA: ctba,
	})
	if write {
		md.m.Disk.SetNextDMA(buf, payload.Source, false)
	} else {
		md.m.Disk.SetNextDMA(buf, nil, true)
	}
	if keepIRQ {
		md.dev.IOWrite(ahci.PortBase+ahci.PxIE, 4, uint64(md.shPxIE))
	} else {
		md.dev.IOWrite(ahci.PortBase+ahci.PxIE, 4, 0)
	}
	md.dev.IOWrite(ahci.PortBase+ahci.PxCI, 4, 1<<vmmSlot)
}

// vmmBusy reports whether the reserved slot's command is in flight.
func (md *AHCI) vmmBusy() bool {
	return uint32(md.dev.IORead(ahci.PortBase+ahci.PxCI, 4))&(1<<vmmSlot) != 0
}

// finish implements controller: clear the emulated CI bit, then have the
// device read a dummy sector through the VMM slot with interrupts enabled
// so the completion interrupt is generated by real hardware
// ("4. Restart").
func (md *AHCI) finish(o *op) bool {
	switch o.sub {
	case 0:
		md.redirCI &^= 1 << o.cmd.slot
		if md.VirtualIRQ {
			// Ablation path: virtual PxIS bit plus injected interrupt.
			md.m.World.RecordVMMWork(virtIRQCost)
			o.sub = 2
			o.sleep(virtIRQCost)
			return false
		}
		md.stats.DummyRestarts.Inc()
		md.issue(false, disk.Payload{LBA: md.dummyLBA, Count: 1, Source: disk.Zero}, true)
		o.sub = 1
		fallthrough
	case 1:
		// Hold the device until the dummy drains (drive-cache hit) so the
		// next VMM request finds it idle.
		if md.vmmBusy() {
			md.stats.Polls.Inc()
			o.sleep(md.backend.PollInterval())
			return false
		}
	case 2:
		md.virtIS |= ahci.ISDHRS
		if md.shPxIE&ahci.ISDHRS != 0 && md.shGHC&ahci.GHCInterruptEnable != 0 {
			md.hba.IRQ.Raise()
		}
	}
	o.sub = 0
	return true
}

// appendSG implements controller: the PRDT in the guest's command table,
// or no buffers if the guest has since moved it outside memory.
func (md *AHCI) appendSG(dst []mem.Region, cmd command, _ int64) []mem.Region {
	dst, _ = ahci.AppendPRDs(dst, md.m.Mem, cmd.ctba, cmd.prdtl)
	return dst
}

var _ Mediator = (*AHCI)(nil)
var _ hwio.Tap = (*AHCI)(nil)
var _ controller = (*AHCI)(nil)

func (md *AHCI) String() string { return fmt.Sprintf("ahci-mediator(%s)", md.hba.Name) }
