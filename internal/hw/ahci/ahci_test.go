package ahci

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/hw/disk"
	hwio "repro/internal/hw/io"
	"repro/internal/hw/mem"
	"repro/internal/sim"
)

// rig assembles HBA + drive + memory + an inline minimal driver.
type rig struct {
	k    *sim.Kernel
	m    *mem.Memory
	d    *disk.Device
	h    *HBA
	ios  *hwio.Space
	done *sim.Signal
	irqs int
	is   uint64 // PxIS at the last interrupt
}

const (
	clbAddr   = 0x4000  // command list
	ctbaAddr  = 0x8000  // command tables, one per slot, 0x100 apart
	bufAddr   = 0x40000 // DMA buffer
	abarMMIO  = ABAR
	port0Base = abarMMIO + PortBase
)

func newRig() *rig { return newRigOn(sim.New(1)) }

func newRigOn(k *sim.Kernel) *rig {
	m := mem.New(64 << 20)
	params := disk.Constellation2()
	params.Sectors = 1 << 20
	d := disk.NewDevice(k, "sda", params)
	irq := hwio.NewIRQ(k, "ahci")
	h := New(k, "ahci0", d, m, irq)
	ios := hwio.NewSpace(k)
	h.RegisterRegion(ios)
	r := &rig{k: k, m: m, d: d, h: h, ios: ios, done: k.NewSignal("drv.done")}
	irq.SetHandler(func() {
		r.irqs++
		is := r.ios.Read(nil, nil, hwio.MMIO, port0Base+PxIS, 4)
		r.is = is
		r.ios.Write(nil, nil, hwio.MMIO, port0Base+PxIS, 4, is) // ack
		r.ios.Write(nil, nil, hwio.MMIO, abarMMIO+RegIS, 4, 1)
		r.done.Broadcast()
	})
	return r
}

func (r *rig) mmw(p *sim.Proc, off int64, v uint64) {
	r.ios.Write(p, nil, hwio.MMIO, abarMMIO+off, 4, v)
}
func (r *rig) mmr(p *sim.Proc, off int64) uint64 {
	return r.ios.Read(p, nil, hwio.MMIO, abarMMIO+off, 4)
}

// initPort brings the port up the way libahci does.
func (r *rig) initPort(p *sim.Proc) {
	r.mmw(p, RegGHC, GHCAHCIEnable|GHCInterruptEnable)
	r.mmw(p, PortBase+PxCLB, clbAddr)
	r.mmw(p, PortBase+PxCLBU, 0)
	r.mmw(p, PortBase+PxFB, 0x3000)
	r.mmw(p, PortBase+PxFBU, 0)
	r.mmw(p, PortBase+PxIE, ISDHRS|ISTFES)
	r.mmw(p, PortBase+PxCMD, CmdST|CmdFRE)
}

// issue builds a command in slot and sets its CI bit.
func (r *rig) issue(p *sim.Proc, slot int, cmd uint8, lba, count int64, write bool) {
	ctba := uint64(ctbaAddr + slot*0x200)
	WriteFIS(r.m, ctba, FIS{Command: cmd, LBA: lba, Count: count})
	WritePRDT(r.m, ctba, []mem.Region{{Start: bufAddr, Size: count * disk.SectorSize}})
	WriteCmdHeader(r.m, clbAddr, slot, CmdHeader{FISLen: 5, Write: write, PRDTL: 1, CTBA: ctba})
	r.mmw(p, PortBase+PxCI, 1<<slot)
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := newRig()
	data := bytes.Repeat([]byte{0xC3}, 4*disk.SectorSize)
	r.k.Spawn("drv", func(p *sim.Proc) {
		r.initPort(p)
		r.m.Write(bufAddr, data)
		r.issue(p, 0, CmdWriteDMAExt, 200, 4, true)
		p.Wait(r.done)
		r.m.Write(bufAddr, make([]byte, len(data)))
		r.issue(p, 1, CmdReadDMAExt, 200, 4, false)
		p.Wait(r.done)
		if got := r.m.Read(bufAddr, int64(len(data))); !bytes.Equal(got, data) {
			t.Error("AHCI DMA round trip mismatch")
		}
	})
	r.k.Run()
	if r.irqs != 2 {
		t.Fatalf("irqs = %d, want 2", r.irqs)
	}
}

func TestCIClearedOnCompletion(t *testing.T) {
	r := newRig()
	r.k.Spawn("drv", func(p *sim.Proc) {
		r.initPort(p)
		r.issue(p, 5, CmdReadDMAExt, 10, 1, false)
		if ci := r.mmr(p, PortBase+PxCI); ci&(1<<5) == 0 {
			t.Error("CI bit not set after issue")
		}
		p.Wait(r.done)
		if ci := r.mmr(p, PortBase+PxCI); ci&(1<<5) != 0 {
			t.Error("CI bit still set after completion")
		}
	})
	r.k.Run()
}

func TestMultipleSlotsFIFO(t *testing.T) {
	r := newRig()
	r.k.Spawn("drv", func(p *sim.Proc) {
		r.initPort(p)
		// Issue three commands at once in one CI write.
		for slot, lba := range []int64{100, 200, 300} {
			ctba := uint64(ctbaAddr + slot*0x200)
			WriteFIS(r.m, ctba, FIS{Command: CmdWriteDMAExt, LBA: lba, Count: 1})
			WritePRDT(r.m, ctba, []mem.Region{{Start: bufAddr, Size: disk.SectorSize}})
			WriteCmdHeader(r.m, clbAddr, slot, CmdHeader{FISLen: 5, Write: true, PRDTL: 1, CTBA: ctba})
		}
		r.m.Write(bufAddr, bytes.Repeat([]byte{1}, disk.SectorSize))
		r.mmw(p, PortBase+PxCI, 0b111)
		for r.mmr(p, PortBase+PxCI) != 0 {
			p.Wait(r.done)
		}
	})
	r.k.Run()
	for _, lba := range []int64{100, 200, 300} {
		if r.d.Store().SourceAt(lba) == disk.Zero {
			t.Fatalf("slot write at %d did not land", lba)
		}
	}
	if r.h.SlotsIssued != 3 {
		t.Fatalf("SlotsIssued = %d, want 3", r.h.SlotsIssued)
	}
}

func TestNoProcessingWithoutST(t *testing.T) {
	r := newRig()
	r.k.Spawn("drv", func(p *sim.Proc) {
		r.mmw(p, RegGHC, GHCAHCIEnable|GHCInterruptEnable)
		r.mmw(p, PortBase+PxCLB, clbAddr)
		// ST not set: issue must be ignored.
		r.issue(p, 0, CmdReadDMAExt, 10, 1, false)
		p.Sleep(50 * sim.Millisecond)
	})
	r.k.Run()
	if r.irqs != 0 {
		t.Fatal("command processed with ST clear")
	}
}

func TestInterruptMasking(t *testing.T) {
	r := newRig()
	r.k.Spawn("drv", func(p *sim.Proc) {
		r.initPort(p)
		r.mmw(p, PortBase+PxIE, 0) // mask everything
		r.issue(p, 0, CmdReadDMAExt, 10, 1, false)
		// Poll PxCI for completion, like a mediator would.
		for r.mmr(p, PortBase+PxCI)&1 != 0 {
			p.Sleep(100 * sim.Microsecond)
		}
	})
	r.k.Run()
	if r.irqs != 0 {
		t.Fatal("interrupt fired despite masked PxIE")
	}
	if r.h.pxis&ISDHRS == 0 {
		t.Fatal("PxIS not recording completion while masked")
	}
}

func TestGHCInterruptEnableGates(t *testing.T) {
	r := newRig()
	r.k.Spawn("drv", func(p *sim.Proc) {
		r.initPort(p)
		r.mmw(p, RegGHC, GHCAHCIEnable) // clear global IE
		r.issue(p, 0, CmdReadDMAExt, 10, 1, false)
		for r.mmr(p, PortBase+PxCI)&1 != 0 {
			p.Sleep(100 * sim.Microsecond)
		}
	})
	r.k.Run()
	if r.irqs != 0 {
		t.Fatal("interrupt fired despite GHC.IE clear")
	}
}

func TestTaskFileErrorOnBadLBA(t *testing.T) {
	r := newRig()
	r.k.Spawn("drv", func(p *sim.Proc) {
		r.initPort(p)
		r.issue(p, 0, CmdReadDMAExt, r.d.Sectors+5, 1, false)
		p.Wait(r.done)
		if tfd := r.mmr(p, PortBase+PxTFD); tfd&TFDErr == 0 {
			t.Errorf("TFD = %#x, want error bit", tfd)
		}
	})
	r.k.Run()
}

func TestIdentify(t *testing.T) {
	r := newRig()
	r.k.Spawn("drv", func(p *sim.Proc) {
		r.initPort(p)
		r.issue(p, 0, CmdIdentify, 0, 1, false)
		p.Wait(r.done)
		b := r.m.Read(bufAddr, 512)
		sectors := int64(b[200]) | int64(b[201])<<8 | int64(b[202])<<16 |
			int64(b[203])<<24 | int64(b[204])<<32
		if sectors != r.d.Sectors {
			t.Errorf("identify sectors = %d, want %d", sectors, r.d.Sectors)
		}
	})
	r.k.Run()
}

func TestHeaderFISPRDTRoundTrip(t *testing.T) {
	m := mem.New(1 << 20)
	hd := CmdHeader{FISLen: 5, Write: true, PRDTL: 3, CTBA: 0xABCD00, PRDBC: 4096}
	WriteCmdHeader(m, 0x100, 7, hd)
	if got, err := ReadCmdHeader(m, 0x100, 7); err != nil || got != hd {
		t.Fatalf("header round trip: got %+v, %v want %+v", got, err, hd)
	}
	f := FIS{Command: CmdReadDMAExt, LBA: 0x123456789A, Count: 2048}
	WriteFIS(m, 0x2000, f)
	got, err := ReadFIS(m, 0x2000)
	if err != nil || got != f {
		t.Fatalf("FIS round trip: got %+v, %v", got, err)
	}
	prds := []mem.Region{{Start: 0x1_0001_0000, Size: 65536}, {Start: 0x30000, Size: 512}}
	WritePRDT(m, 0x2000, prds)
	rt, err := AppendPRDs(nil, m, 0x2000, 2)
	if err != nil || !slices.Equal(rt, prds) {
		t.Fatalf("PRDT round trip: %+v, %v vs %+v", rt, err, prds)
	}
}

// TestStructuresOutsideMemory: the decoders refuse headers, FISes and
// PRDTs that do not lie wholly inside memory, including addresses whose
// high bit makes them negative as int64.
func TestStructuresOutsideMemory(t *testing.T) {
	m := mem.New(1 << 20)
	if _, err := ReadCmdHeader(m, 1<<20-CmdHeaderSize, 1); err != ErrOutsideMemory {
		t.Errorf("header past the end: err = %v", err)
	}
	if _, err := ReadCmdHeader(m, 1<<63, 0); err != ErrOutsideMemory {
		t.Errorf("header at 1<<63: err = %v", err)
	}
	if _, err := ReadFIS(m, 1<<20-CmdTableFIS-8); err != ErrOutsideMemory {
		t.Errorf("FIS straddling the end: err = %v", err)
	}
	if _, err := ReadFIS(m, 1<<63-4); err != ErrOutsideMemory {
		t.Errorf("FIS whose offset overflows: err = %v", err)
	}
	prefix := []mem.Region{{Start: 1, Size: 1}}
	got, err := AppendPRDs(prefix, m, 1<<20-CmdTablePRDT-PRDTEntrySize, 2)
	if err != ErrOutsideMemory || !slices.Equal(got, prefix) {
		t.Errorf("PRDT straddling the end: %v, %v", got, err)
	}
	if _, err := AppendPRDs(nil, m, 1<<20-CmdTablePRDT-PRDTEntrySize, 1); err != nil {
		t.Errorf("PRDT ending at the end: %v", err)
	}
}

// TestHostBusFaultOutsideMemory: a command whose header, command table,
// PRDT or data buffer lies outside memory completes with a host bus fatal
// and a task-file error instead of stopping the simulation.
func TestHostBusFaultOutsideMemory(t *testing.T) {
	size := int64(64 << 20)
	for _, tc := range []struct {
		name  string
		setup func(r *rig, ctba uint64) // rewrites the slot-0 command issue builds
	}{
		{"header", func(r *rig, _ uint64) { r.mmw(nil, PortBase+PxCLB, uint64(size)) }},
		{"table", func(r *rig, _ uint64) {
			WriteCmdHeader(r.m, clbAddr, 0, CmdHeader{FISLen: 5, PRDTL: 1, CTBA: uint64(size) - 8})
		}},
		{"prdt", func(r *rig, _ uint64) {
			ctba := uint64(size) - CmdTablePRDT - PRDTEntrySize
			WriteFIS(r.m, ctba, FIS{Command: CmdReadDMAExt, LBA: 10, Count: 1})
			WriteCmdHeader(r.m, clbAddr, 0, CmdHeader{FISLen: 5, PRDTL: 2, CTBA: ctba})
		}},
		{"buffer", func(r *rig, ctba uint64) {
			WritePRDT(r.m, ctba, []mem.Region{{Start: size - 256, Size: disk.SectorSize}})
		}},
		{"negative-buffer", func(r *rig, ctba uint64) {
			WritePRDT(r.m, ctba, []mem.Region{{Start: -4096, Size: disk.SectorSize}})
		}},
		{"identify-buffer", func(r *rig, ctba uint64) {
			WriteFIS(r.m, ctba, FIS{Command: CmdIdentify})
			WritePRDT(r.m, ctba, []mem.Region{{Start: size, Size: 512}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig()
			r.k.Spawn("drv", func(p *sim.Proc) {
				r.initPort(p)
				ctba := uint64(ctbaAddr)
				WriteFIS(r.m, ctba, FIS{Command: CmdReadDMAExt, LBA: 10, Count: 1})
				WritePRDT(r.m, ctba, []mem.Region{{Start: bufAddr, Size: disk.SectorSize}})
				WriteCmdHeader(r.m, clbAddr, 0, CmdHeader{FISLen: 5, PRDTL: 1, CTBA: ctba})
				tc.setup(r, ctba)
				r.mmw(p, PortBase+PxCI, 1)
				p.Wait(r.done)
			})
			r.k.Run()
			if r.is&(ISHBFS|ISTFES) != ISHBFS|ISTFES || r.is&ISDHRS != 0 {
				t.Errorf("PxIS = %#x, want HBFS|TFES without DHRS", r.is)
			}
			if tfd := r.h.IORead(PortBase+PxTFD, 4); tfd&TFDErr == 0 || tfd&TFDBusy != 0 {
				t.Errorf("TFD = %#x, want error, not busy", tfd)
			}
			if ci := r.h.OutstandingCI(); ci != 0 {
				t.Errorf("CI = %#x after the fault", ci)
			}
		})
	}
}

func TestReadFISRejectsGarbage(t *testing.T) {
	m := mem.New(1 << 20)
	if _, err := ReadFIS(m, 0x500); err == nil { // zeroed memory: not a FIS
		t.Fatal("garbage FIS accepted")
	}
}

func TestSymbolicHints(t *testing.T) {
	r := newRig()
	src := disk.Synth{Seed: 5, Label: "wl"}
	r.k.Spawn("drv", func(p *sim.Proc) {
		r.initPort(p)
		r.d.SetNextDMA(bufAddr, src, false)
		r.issue(p, 0, CmdWriteDMAExt, 700, 8, true)
		p.Wait(r.done)
	})
	r.k.Run()
	if got := r.d.Store().SourceAt(700); got != disk.SectorSource(src) {
		t.Fatalf("source = %s, want wl", got.Name())
	}
}

func TestDirectionMismatchFaults(t *testing.T) {
	r := newRig()
	r.k.Spawn("drv", func(p *sim.Proc) {
		r.initPort(p)
		// Header says write, FIS says read: fault.
		r.issue(p, 0, CmdReadDMAExt, 10, 1, true)
		p.Wait(r.done)
		if tfd := r.mmr(p, PortBase+PxTFD); tfd&TFDErr == 0 {
			t.Error("direction mismatch not faulted")
		}
	})
	r.k.Run()
}

// TestEngineRunsWithoutProcess: the HBA runs its command engine as kernel
// callbacks. Building it and running commands through it and its drive
// starts no process, and once warm a discard-hinted read allocates
// nothing: the engine's steps and the drive's access records are bound
// once, not per command.
func TestEngineRunsWithoutProcess(t *testing.T) {
	k := sim.New(1)
	var events []string
	k.SetProcHook(func(_ sim.Time, ev sim.ProcEvent, name string) {
		events = append(events, ev.String()+" "+name)
	})
	r := newRigOn(k)
	r.initPort(nil)
	read := func() {
		r.d.SetNextDMA(bufAddr, nil, true)
		r.issue(nil, 3, CmdReadDMAExt, 4096, 8, false)
		k.Run()
	}
	for i := 0; i < 64; i++ {
		read()
	}
	const runs = 256
	avg := testing.AllocsPerRun(runs, read)
	if len(events) != 0 {
		t.Fatalf("process events %q, want none", events)
	}
	if r.irqs != 64+runs+1 || r.d.Reads.Value() != int64(r.irqs) {
		t.Fatalf("%d interrupts, %d drive reads, want %d each", r.irqs, r.d.Reads.Value(), 64+runs+1)
	}
	if avg != 0 {
		t.Fatalf("one warm read command allocates %.1f objects, want 0", avg)
	}
}

// TestIssueSchedulesOneStep: an issue that finds the engine idle
// schedules one step, as it woke a parked engine process once; an issue
// while that step is pending or while a command runs schedules nothing,
// and the engine picks the slot up when the running command completes.
func TestIssueSchedulesOneStep(t *testing.T) {
	r := newRig()
	r.initPort(nil)
	r.issue(nil, 0, CmdReadDMAExt, 100, 8, false)
	r.issue(nil, 1, CmdReadDMAExt, 200, 8, false)
	if n := r.k.Pending(); n != 1 {
		t.Fatalf("%d events pending after two issues, want 1", n)
	}
	r.k.RunUntil(r.k.Now()) // the step starts slot 0's service time
	r.issue(nil, 2, CmdReadDMAExt, 300, 8, false)
	if n := r.k.Pending(); n != 1 {
		t.Fatalf("%d events pending after an issue behind a running command, want 1", n)
	}
	r.k.Run()
	if r.irqs != 3 || r.h.OutstandingCI() != 0 || r.h.Busy() {
		t.Fatalf("%d interrupts, CI %#x, busy %v: want all three slots completed", r.irqs, r.h.OutstandingCI(), r.h.Busy())
	}
}
