package mediator

import (
	"fmt"

	"repro/internal/cpuvirt"
	"repro/internal/hw/disk"
	"repro/internal/hw/ide"
	hwio "repro/internal/hw/io"
	"repro/internal/hw/mem"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ideMode is the mediator's high-level state.
type ideMode int

const (
	idePassthrough ideMode = iota // guest traffic reaches the device
	ideRedirecting                // a guest read is being served from the server
	ideVMMOwns                    // a VMM request occupies the device
)

// latchedShadow mirrors the controller's hob register pair.
type latchedShadow struct{ cur, prev uint8 }

func (l *latchedShadow) write(v uint8) { l.prev, l.cur = l.cur, v }

// IDE is the device mediator for the IDE controller. Its LOC-to-function
// ratio mirrors the paper's observation: it only understands the command,
// status, and data-transfer sequences, ignoring initialization and
// vendor-specific traffic.
type IDE struct {
	pipeline
	ctrl *ide.Controller

	attached bool
	mode     ideMode

	// Shadow task file: what the guest believes it programmed.
	shFeature, shCount, shLBALow, shLBAMid, shLBAHigh latchedShadow
	shDevice                                          uint8
	shNIEN                                            bool
	shPRDT                                            uint32
	shBMCmd                                           uint8

	queued []command // guest commands held during VMM ownership

	// The controller's command block, control block and bus-master
	// registers as the device sees them, bypassing the taps.
	cb, ctl, bm hwio.Handler

	// VMM resources: a reserved-memory scratch area for PRD tables and
	// dummy buffers, and the dummy sector used to generate interrupts.
	vmmRegion mem.Region
	dummyLBA  int64

	// VirtualIRQ selects the design alternative the paper rejects
	// (§3.2): instead of restarting the device on a dummy sector so real
	// hardware raises the completion interrupt, the mediator injects a
	// virtual interrupt itself. This requires (partially) virtualizing
	// interrupt delivery, costing an injection path per completion and
	// complicating de-virtualization; it exists here for the ablation
	// benchmark.
	VirtualIRQ bool
}

// virtIRQCost is the interrupt-injection path cost under VirtualIRQ
// (vector lookup, virtual APIC emulation, event injection on VM entry).
const virtIRQCost = 8 * sim.Microsecond

// NewIDE builds the mediator for machine m (which must use IDE storage),
// drawing scratch memory from vmmRegion.
func NewIDE(m *machine.Machine, backend Backend, vmmRegion mem.Region) *IDE {
	if m.IDE == nil {
		panic("mediator: machine has no IDE controller")
	}
	md := &IDE{
		ctrl:      m.IDE,
		cb:        m.IO.Lookup(m.IDE.Name + ".cmd").Device(),
		ctl:       m.IO.Lookup(m.IDE.Name + ".ctl").Device(),
		bm:        m.IO.Lookup(m.IDE.Name + ".bm").Device(),
		vmmRegion: vmmRegion,
		dummyLBA:  m.Disk.Sectors - 1, // a sector the guest image never uses
	}
	md.pipeline = newPipeline(m, backend, md)
	return md
}

// VMM scratch layout within the reserved region.
const (
	vmmPRDOff   = 0x0
	vmmDummyOff = 0x1000
	vmmBufOff   = 0x2000
)

// Attach implements Mediator.
func (md *IDE) Attach() {
	for _, name := range []string{md.ctrl.Name + ".cmd", md.ctrl.Name + ".ctl", md.ctrl.Name + ".bm"} {
		md.m.IO.SetTap(name, md)
	}
	md.attached = true
}

// Detach implements Mediator: de-virtualization of this device.
func (md *IDE) Detach() {
	if !md.Quiesced() {
		panic("mediator: detach with mediation in flight")
	}
	for _, name := range []string{md.ctrl.Name + ".cmd", md.ctrl.Name + ".ctl", md.ctrl.Name + ".bm"} {
		md.m.IO.SetTap(name, nil)
	}
	md.attached = false
}

// Quiesced implements Mediator.
func (md *IDE) Quiesced() bool {
	return md.mode == idePassthrough && len(md.queued) == 0 && md.devLock.InUse() == 0
}

// regionKind classifies the tapped region by name suffix.
func (md *IDE) regionKind(r *hwio.Region) string {
	switch r.Name {
	case md.ctrl.Name + ".cmd":
		return "cmd"
	case md.ctrl.Name + ".ctl":
		return "ctl"
	default:
		return "bm"
	}
}

// Trap implements io.Tap: a guest access to a controller port is a PIO
// exit.
func (md *IDE) Trap(*hwio.Region) sim.Duration { return md.m.World.Charge(cpuvirt.ExitPIO) }

// TapRead implements io.Tap: status emulation.
func (md *IDE) TapRead(r *hwio.Region, off int64, size int, _ *trace.Span) (uint64, bool) {
	kind := md.regionKind(r)
	switch {
	case kind == "cmd" && off == ide.RegStatusCmd, kind == "ctl" && off == ide.RegDevControl:
		switch md.mode {
		case ideRedirecting:
			return ide.StatusBSY, true
		case ideVMMOwns:
			// Emulate "not busy" so the guest proceeds; if the guest
			// already issued a (queued) command, it must see busy.
			if len(md.queued) > 0 {
				return ide.StatusBSY, true
			}
			return ide.StatusDRDY, true
		}
	case kind == "bm" && off == ide.BMRegStatus:
		if md.mode == ideVMMOwns || md.mode == ideRedirecting {
			return uint64(md.shBMCmd & ide.BMCmdStart), true // hide VMM activity
		}
	}
	return 0, false // pass through to the device
}

// TapWrite implements io.Tap: interpretation and interception.
func (md *IDE) TapWrite(r *hwio.Region, off int64, size int, v uint64, cause *trace.Span) bool {
	kind := md.regionKind(r)
	x := uint8(v)
	swallow := md.mode != idePassthrough

	switch kind {
	case "ctl":
		md.shNIEN = x&ide.CtlNIEN != 0
		return swallow
	case "bm":
		switch off {
		case ide.BMRegPRDT:
			md.shPRDT = uint32(v)
		case ide.BMRegCmd:
			md.shBMCmd = x
		}
		return swallow
	}
	// Command block.
	switch off {
	case ide.RegErrFeature:
		md.shFeature.write(x)
	case ide.RegSectorCount:
		md.shCount.write(x)
	case ide.RegLBALow:
		md.shLBALow.write(x)
	case ide.RegLBAMid:
		md.shLBAMid.write(x)
	case ide.RegLBAHigh:
		md.shLBAHigh.write(x)
	case ide.RegDevice:
		md.shDevice = x
	case ide.RegStatusCmd:
		return md.onGuestCommand(cause, x)
	}
	return swallow
}

// decode reconstructs the command from the shadow task file — the I/O
// interpretation step. A PRD table or data buffer the guest placed
// outside memory makes it not a data command: the device faults it.
func (md *IDE) decode(opcode uint8) command {
	c := command{opcode: opcode, prdt: md.shPRDT, bmCmd: md.shBMCmd}
	switch opcode {
	case ide.CmdReadDMA, ide.CmdWriteDMA:
		c.data = true
		c.write = opcode == ide.CmdWriteDMA
		c.lba = int64(md.shLBALow.cur) | int64(md.shLBAMid.cur)<<8 |
			int64(md.shLBAHigh.cur)<<16 | int64(md.shDevice&0x0F)<<24
		c.count = int64(md.shCount.cur)
		if c.count == 0 {
			c.count = 256
		}
	case ide.CmdReadDMAExt, ide.CmdWriteDMAExt:
		c.data = true
		c.write = opcode == ide.CmdWriteDMAExt
		c.lba = int64(md.shLBALow.cur) | int64(md.shLBAMid.cur)<<8 | int64(md.shLBAHigh.cur)<<16 |
			int64(md.shLBALow.prev)<<24 | int64(md.shLBAMid.prev)<<32 | int64(md.shLBAHigh.prev)<<40
		c.count = int64(md.shCount.cur) | int64(md.shCount.prev)<<8
		if c.count == 0 {
			c.count = 65536
		}
	}
	// Data information: the guest DMA buffers, walked as the device will
	// walk the table (a command without data reads its first entry).
	want := max(c.count, 1) * disk.SectorSize
	var err error
	if md.sg, err = ide.AppendPRDs(md.sg[:0], md.m.Mem, int64(md.shPRDT), want); err != nil {
		c.data = false
		return c
	}
	c.bufAddr = md.sg[0].Start
	c.data = c.data && md.m.Mem.Reachable(md.sg, want)
	return c
}

// onGuestCommand is the interpretation/dispatch point for a command
// register write. It reports whether the write was swallowed.
func (md *IDE) onGuestCommand(cause *trace.Span, opcode uint8) bool {
	cmd := md.decode(opcode)
	md.intercept(cause, &cmd)
	if md.mode == ideVMMOwns {
		// I/O multiplexing: hold the guest request until the VMM's
		// completes, then replay it.
		md.stats.QueuedCommands.Inc()
		md.queued = append(md.queued, cmd)
		return true
	}
	return md.route(cmd)
}

// take implements controller. An insertion also waits for an in-flight
// guest command to complete ("1. Find" in the paper's Figure 3); a
// taken-over command has not reached the device.
func (md *IDE) take(o *op, insert bool) bool {
	if insert && md.ctrl.Busy() {
		md.stats.Polls.Inc()
		md.m.World.Exit(nil, cpuvirt.ExitPreemptionTimer)
		o.sleep(md.backend.PollInterval())
		return false
	}
	return true
}

// own implements controller: guest commands are queued from here on.
func (md *IDE) own() { md.mode = ideVMMOwns }

// give implements controller: after an insertion, replay the commands the
// guest issued while the VMM held the device, restoring the guest's view.
func (md *IDE) give(owned bool) {
	if owned {
		md.mode = idePassthrough
		for len(md.queued) > 0 {
			cmd := md.queued[0]
			md.queued = md.queued[1:]
			md.replay(cmd)
		}
	}
}

// transfer implements controller: one VMM request issued directly to the
// device, with device interrupts disabled and completion detected by
// polling — the multiplexing primitive.
func (md *IDE) transfer(o *op, write bool, payload disk.Payload) bool {
	if o.sub == 0 {
		md.issue(write, payload, false)
		o.sub = 1
	}
	// Poll for completion at the backend's interval; each poll is a
	// preemption-timer exit plus a little handler work (paper §4.1).
	if md.cb.IORead(ide.RegStatusCmd, 1)&ide.StatusBSY != 0 {
		md.stats.Polls.Inc()
		md.m.World.Exit(nil, cpuvirt.ExitPreemptionTimer)
		md.m.World.RecordVMMWork(2 * sim.Microsecond)
		o.sleep(md.backend.PollInterval())
		return false
	}
	md.bm.IOWrite(ide.BMRegStatus, 1, ide.BMStatusIRQ) // ack quietly
	md.bm.IOWrite(ide.BMRegCmd, 1, 0)
	md.ctl.IOWrite(ide.RegDevControl, 1, md.guestDevControl()) // restore the guest's setting
	o.sub = 0
	return true
}

// takeOver implements controller: the guest sees the device busy.
func (md *IDE) takeOver(command) { md.mode = ideRedirecting }

// appendSG implements controller: the guest's PRD table captured by
// interpretation, or no buffers if the guest has since made it reach
// outside memory.
func (md *IDE) appendSG(dst []mem.Region, cmd command, want int64) []mem.Region {
	dst, _ = ide.AppendPRDs(dst, md.m.Mem, int64(cmd.prdt), want)
	return dst
}

// issue programs one VMM request into the device and starts it, through
// the untapped registers. keepIRQ honors the guest's interrupt setting,
// so the completion interrupts the guest; otherwise interrupts are
// disabled.
func (md *IDE) issue(write bool, payload disk.Payload, keepIRQ bool) {
	if !keepIRQ {
		md.ctl.IOWrite(ide.RegDevControl, 1, ide.CtlNIEN)
	} else {
		// Honor the guest's interrupt setting: the restart must raise
		// the interrupt exactly when the guest's own command would have.
		md.ctl.IOWrite(ide.RegDevControl, 1, md.guestDevControl())
	}
	// Build a PRD table in VMM scratch memory pointing at the VMM bounce
	// buffer; content rides the DMA hint, so the buffer is never copied.
	prd := md.vmmRegion.Start + vmmPRDOff
	buf := md.vmmRegion.Start + vmmBufOff
	ide.WritePRDTable(md.m.Mem, prd, buf, payload.Count*disk.SectorSize)
	md.bm.IOWrite(ide.BMRegPRDT, 4, uint64(prd))
	if write {
		md.m.Disk.SetNextDMA(buf, payload.Source, false)
	} else {
		md.m.Disk.SetNextDMA(buf, nil, true) // VMM reads are bookkeeping only
	}
	writeTaskFile(md.cb, payload.LBA, payload.Count)
	opcode := uint64(ide.CmdReadDMAExt)
	dir := uint64(ide.BMCmdRead)
	if write {
		opcode = ide.CmdWriteDMAExt
		dir = 0
	}
	md.cb.IOWrite(ide.RegStatusCmd, 1, opcode)
	md.bm.IOWrite(ide.BMRegCmd, 1, ide.BMCmdStart|dir)
}

// guestDevControl is the device control value the guest programmed.
func (md *IDE) guestDevControl() uint64 {
	if md.shNIEN {
		return ide.CtlNIEN
	}
	return 0
}

// writeTaskFile programs a 48-bit LBA and sector count into the command
// block, high bytes first, and selects LBA addressing.
func writeTaskFile(cb hwio.Handler, lba, count int64) {
	cb.IOWrite(ide.RegSectorCount, 1, uint64(count>>8&0xFF))
	cb.IOWrite(ide.RegSectorCount, 1, uint64(count&0xFF))
	cb.IOWrite(ide.RegLBALow, 1, uint64(lba>>24&0xFF))
	cb.IOWrite(ide.RegLBALow, 1, uint64(lba&0xFF))
	cb.IOWrite(ide.RegLBAMid, 1, uint64(lba>>32&0xFF))
	cb.IOWrite(ide.RegLBAMid, 1, uint64(lba>>8&0xFF))
	cb.IOWrite(ide.RegLBAHigh, 1, uint64(lba>>40&0xFF))
	cb.IOWrite(ide.RegLBAHigh, 1, uint64(lba>>16&0xFF))
	cb.IOWrite(ide.RegDevice, 1, ide.DeviceLBA)
}

// finish implements controller: make the device generate the guest's
// completion interrupt by reading one dummy sector into a VMM buffer
// (paper §3.2, "4. Restart"). The mediator returns to passthrough before
// the device completes, so the guest's interrupt handler observes real
// hardware state.
func (md *IDE) finish(o *op) bool {
	switch o.sub {
	case 0:
		md.mode = idePassthrough
		if md.VirtualIRQ {
			// Ablation path: inject the interrupt from the VMM.
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
		// Wait for the dummy to finish so the device is idle before the
		// mediator's lock is released; the read hits the drive cache.
		if md.ctrl.Busy() {
			md.stats.Polls.Inc()
			o.sleep(md.backend.PollInterval())
			return false
		}
	case 2:
		if !md.shNIEN {
			md.ctrl.IRQ.Raise()
		}
	}
	o.sub = 0
	return true
}

// replay re-injects a queued guest command: the device registers are
// restored from the interpreted snapshot and the command re-dispatched (a
// replayed read may itself need redirection).
func (md *IDE) replay(cmd command) {
	if md.route(cmd) {
		// The pipeline took the command over (redirect/protect); its
		// completion path runs asynchronously.
		return
	}
	// Passthrough: program the device with the guest's register values.
	md.ctl.IOWrite(ide.RegDevControl, 1, md.guestDevControl())
	md.bm.IOWrite(ide.BMRegPRDT, 4, uint64(cmd.prdt))
	writeTaskFile(md.cb, cmd.lba, cmd.count)
	md.cb.IOWrite(ide.RegStatusCmd, 1, uint64(cmd.opcode))
	bmv := uint64(cmd.bmCmd)
	if bmv&ide.BMCmdStart == 0 {
		bmv |= ide.BMCmdStart
		if !cmd.write {
			bmv |= ide.BMCmdRead
		}
	}
	md.bm.IOWrite(ide.BMRegCmd, 1, bmv)
}

var _ Mediator = (*IDE)(nil)
var _ hwio.Tap = (*IDE)(nil)
var _ controller = (*IDE)(nil)

func (md *IDE) String() string { return fmt.Sprintf("ide-mediator(%s)", md.ctrl.Name) }
