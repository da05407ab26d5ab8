package disk_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hw/ahci"
	"repro/internal/hw/disk"
	"repro/internal/hw/ide"
	hwio "repro/internal/hw/io"
	"repro/internal/hw/mem"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// Guest memory layout of the arm-contention scenario.
const (
	armCLB     = 0x4000   // AHCI command list
	armCTBA    = 0x8000   // AHCI command tables, 0x200 apart
	armAHCIBuf = 0x100000 // AHCI slot buffers, 128 KiB apart
	armPRDT    = 0x2000   // IDE PRD table
	armIDEBuf  = 0x800000 // IDE buffer
)

// armCmd is one scripted controller command.
type armCmd struct {
	at    sim.Duration // AHCI: issue time; IDE: delay after the previous completion
	slot  int          // AHCI slot
	op    uint8
	lba   int64
	count int64
	write bool
	// bmDelay delays the IDE bus-master start after the command write;
	// 0 starts it in the same event.
	bmDelay sim.Duration
	hint    string // "discard" read, "synth" write content, or none
}

// armScheduleRun drives one drive shared by an AHCI HBA, an IDE
// controller and two processes doing blocking reads and writes, so every
// access contends for the one arm, and returns the schedule: each
// interrupt with the controller state it reports, each blocking access
// with its completion time and the data it read, and the final drive
// statistics and contents.
func armScheduleRun() string {
	var log bytes.Buffer
	k := sim.New(1)
	m := mem.New(16 << 20)
	params := disk.Constellation2()
	params.Sectors = 1 << 20
	d := disk.NewDevice(k, "sda", params)
	irqA := hwio.NewIRQ(k, "ahci")
	irqI := hwio.NewIRQ(k, "ide")
	h := ahci.New(k, "ahci0", d, m, irqA)
	c := ide.New(k, "ide0", d, m, irqI)
	cmdBlk, bm := c.CmdBlock(), c.BusMaster()

	sum := func(addr, n int64) uint64 {
		f := fnv.New64a()
		f.Write(m.Read(addr, n))
		return f.Sum64()
	}
	pattern := func(addr, n int64, seed byte) {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed ^ byte(i*7) ^ byte(i>>9)
		}
		m.Write(addr, b)
	}

	port := func(off int64, v uint64) { h.IOWrite(ahci.PortBase+off, 4, v) }
	h.IOWrite(ahci.RegGHC, 4, ahci.GHCAHCIEnable|ahci.GHCInterruptEnable)
	port(ahci.PxCLB, armCLB)
	port(ahci.PxIE, ahci.ISDHRS|ahci.ISTFES|ahci.ISHBFS)
	port(ahci.PxCMD, ahci.CmdST|ahci.CmdFRE)
	irqA.SetHandler(func() {
		is := h.IORead(ahci.PortBase+ahci.PxIS, 4)
		fmt.Fprintf(&log, "%d irq ahci pxis=%#x ci=%#x tfd=%#x head=%d\n",
			k.Now(), is, h.OutstandingCI(), h.IORead(ahci.PortBase+ahci.PxTFD, 4), d.Head())
		port(ahci.PxIS, is)
		h.IOWrite(ahci.RegIS, 4, 1)
	})
	ahciIssue := func(x armCmd) {
		ctba := uint64(armCTBA + x.slot*0x200)
		buf := int64(armAHCIBuf + x.slot*0x20000)
		n := max(x.count, 1) * disk.SectorSize
		// Two PRD entries: the buffer's halves, the second first.
		half := n / 2 / disk.SectorSize * disk.SectorSize
		prds := []mem.Region{{Start: buf + half, Size: n - half}}
		if half > 0 {
			prds = []mem.Region{{Start: buf + half, Size: n - half}, {Start: buf, Size: half}}
		}
		ahci.WriteFIS(m, ctba, ahci.FIS{Command: x.op, LBA: x.lba, Count: x.count})
		ahci.WritePRDT(m, ctba, prds)
		ahci.WriteCmdHeader(m, armCLB, x.slot, ahci.CmdHeader{FISLen: 5, Write: x.write, PRDTL: len(prds), CTBA: ctba})
		switch {
		case x.write && x.hint == "synth":
			d.SetNextDMA(prds[0].Start, disk.Synth{Seed: x.lba, Label: "ahci-hint"}, false)
		case x.write:
			pattern(buf, n, byte(x.slot+1))
		case x.hint == "discard":
			d.SetNextDMA(prds[0].Start, nil, true)
		}
		fmt.Fprintf(&log, "%d issue ahci slot=%d op=%#x lba=%d count=%d\n", k.Now(), x.slot, x.op, x.lba, x.count)
		port(ahci.PxCI, 1<<x.slot)
	}
	for _, x := range []armCmd{
		{at: 0, slot: 0, op: ahci.CmdReadDMAExt, lba: 1000, count: 64},
		{at: 0, slot: 1, op: ahci.CmdWriteDMAExt, lba: 200000, count: 16, write: true},
		{at: 0, slot: 2, op: ahci.CmdReadDMAExt, lba: 200000, count: 16},
		{at: 3 * sim.Millisecond, slot: 3, op: ahci.CmdReadDMAExt, lba: 500000, count: 256, hint: "discard"},
		{at: 3 * sim.Millisecond, slot: 4, op: ahci.CmdFlushCache},
		{at: 9 * sim.Millisecond, slot: 5, op: ahci.CmdWriteDMAExt, lba: 7000, count: 8, write: true, hint: "synth"},
		{at: 9 * sim.Millisecond, slot: 6, op: ahci.CmdReadDMAExt, lba: 1 << 20, count: 8},
		{at: 9 * sim.Millisecond, slot: 7, op: ahci.CmdReadDMAExt, lba: 7000, count: 8},
		{at: 30 * sim.Millisecond, slot: 0, op: ahci.CmdIdentify, count: 1},
		{at: 30 * sim.Millisecond, slot: 1, op: ahci.CmdReadDMAExt, lba: 1000, count: 64},
		{at: 41 * sim.Millisecond, slot: 2, op: ahci.CmdReadDMAExt, lba: 900000, count: 128},
		{at: 41 * sim.Millisecond, slot: 3, op: ahci.CmdWriteDMAExt, lba: 900000, count: 1024, write: true},
	} {
		k.At(sim.Time(x.at), func() { ahciIssue(x) })
	}

	ideScript := []armCmd{
		{at: 0, op: ide.CmdReadDMAExt, lba: 300000, count: 32},
		{at: 0, op: ide.CmdWriteDMAExt, lba: 1000, count: 8, write: true, bmDelay: 2 * sim.Millisecond},
		{at: 500 * sim.Microsecond, op: ide.CmdFlushCache},
		{at: 0, op: ide.CmdReadDMA, lba: 1000, count: 8, bmDelay: sim.Microsecond},
		{at: 1 * sim.Millisecond, op: ide.CmdReadDMAExt, lba: 600000, count: 64, hint: "discard"},
		{at: 0, op: ide.CmdWriteDMA, lba: 2000, count: 0, write: true, hint: "synth"},
		{at: 0, op: ide.CmdReadDMAExt, lba: 1<<20 - 4, count: 8},
		{at: 2 * sim.Millisecond, op: ide.CmdReadDMAExt, lba: 200000, count: 16},
	}
	var ideNext func()
	ideIssue := func(x armCmd) {
		n := x.count
		if n == 0 {
			n = 256
		}
		if x.op != ide.CmdFlushCache {
			ide.WritePRDTable(m, armPRDT, armIDEBuf, n*disk.SectorSize)
			bm.IOWrite(ide.BMRegPRDT, 4, armPRDT)
			switch {
			case x.write && x.hint == "synth":
				d.SetNextDMA(armIDEBuf, disk.Synth{Seed: x.lba, Label: "ide-hint"}, false)
			case x.write:
				pattern(armIDEBuf, n*disk.SectorSize, 0x90)
			case x.hint == "discard":
				d.SetNextDMA(armIDEBuf, nil, true)
			}
		}
		if x.op == ide.CmdReadDMAExt || x.op == ide.CmdWriteDMAExt {
			cmdBlk.IOWrite(ide.RegSectorCount, 1, uint64(x.count>>8))
			cmdBlk.IOWrite(ide.RegLBALow, 1, uint64(x.lba>>24))
			cmdBlk.IOWrite(ide.RegLBAMid, 1, uint64(x.lba>>32))
			cmdBlk.IOWrite(ide.RegLBAHigh, 1, uint64(x.lba>>40))
		}
		cmdBlk.IOWrite(ide.RegSectorCount, 1, uint64(x.count))
		cmdBlk.IOWrite(ide.RegLBALow, 1, uint64(x.lba))
		cmdBlk.IOWrite(ide.RegLBAMid, 1, uint64(x.lba>>8))
		cmdBlk.IOWrite(ide.RegLBAHigh, 1, uint64(x.lba>>16))
		cmdBlk.IOWrite(ide.RegDevice, 1, ide.DeviceLBA|uint64(x.lba>>24)&0x0F)
		dir := uint64(ide.BMCmdRead)
		if x.write {
			dir = 0
		}
		fmt.Fprintf(&log, "%d issue ide op=%#x lba=%d count=%d\n", k.Now(), x.op, x.lba, x.count)
		cmdBlk.IOWrite(ide.RegStatusCmd, 1, uint64(x.op))
		if x.op == ide.CmdFlushCache {
			return
		}
		start := func() { bm.IOWrite(ide.BMRegCmd, 1, dir|ide.BMCmdStart) }
		if x.bmDelay == 0 {
			start()
			return
		}
		k.After(x.bmDelay, func() {
			fmt.Fprintf(&log, "%d bm-start ide\n", k.Now())
			start()
		})
	}
	irqI.SetHandler(func() {
		st := cmdBlk.IORead(ide.RegStatusCmd, 1)
		bs := bm.IORead(ide.BMRegStatus, 1)
		fmt.Fprintf(&log, "%d irq ide status=%#x bm=%#x err=%#x head=%d\n",
			k.Now(), st, bs, cmdBlk.IORead(ide.RegErrFeature, 1), d.Head())
		bm.IOWrite(ide.BMRegCmd, 1, 0)
		bm.IOWrite(ide.BMRegStatus, 1, ide.BMStatusIRQ|ide.BMStatusError)
		ideNext()
	})
	ideNext = func() {
		if len(ideScript) == 0 {
			return
		}
		x := ideScript[0]
		ideScript = ideScript[1:]
		k.After(x.at, func() { ideIssue(x) })
	}
	k.At(sim.Time(200*sim.Microsecond), ideNext)

	host := func(name string, start sim.Duration, ops []armCmd) {
		k.Spawn(name, func(p *sim.Proc) {
			p.Sleep(start)
			for _, x := range ops {
				p.Sleep(x.at)
				if x.write {
					d.Write(p, x.lba, x.count, disk.Synth{Seed: x.lba ^ 0x77, Label: name})
					fmt.Fprintf(&log, "%d %s write lba=%d count=%d\n", p.Now(), name, x.lba, x.count)
					continue
				}
				pl := d.Read(p, x.lba, x.count)
				f := fnv.New64a()
				f.Write(pl.Bytes())
				fmt.Fprintf(&log, "%d %s read lba=%d count=%d src=%s sum=%x\n",
					p.Now(), name, x.lba, x.count, pl.Source.Name(), f.Sum64())
			}
		})
	}
	host("host1", 100*sim.Microsecond, []armCmd{
		{lba: 400000, count: 128, write: true},
		{lba: 1000, count: 64},
		{at: 2 * sim.Millisecond, lba: 200000, count: 16},
		{lba: 7000, count: 8, write: true},
		{at: 5 * sim.Millisecond, lba: 400000, count: 128},
		{lba: 300000, count: 2048, write: true},
		{lba: 900000, count: 64},
	})
	host("host2", 3*sim.Millisecond, []armCmd{
		{lba: 2000, count: 8},
		{lba: 2000, count: 8},
		{at: 8 * sim.Millisecond, lba: 650000, count: 512, write: true},
		{lba: 1000, count: 8},
	})
	k.Run()

	fmt.Fprintf(&log, "end=%d head=%d reads=%d writes=%d bytes_read=%d bytes_written=%d seeks=%d cache_hits=%d\n",
		k.Now(), d.Head(), d.Reads.Value(), d.Writes.Value(), d.BytesRead.Value(), d.BytesWritten.Value(),
		d.Seeks.Value(), d.CacheHits.Value())
	fmt.Fprintf(&log, "ahci slots=%d cmds=%v ide cmds=%v irqs=%d/%d busy=%v/%v\n",
		h.SlotsIssued, h.CmdLog, c.CmdLog, irqA.Raised, irqI.Raised, h.Busy(), c.Busy())
	for slot := 0; slot < 8; slot++ {
		fmt.Fprintf(&log, "mem ahci slot=%d sum=%x\n", slot, sum(int64(armAHCIBuf+slot*0x20000), 0x20000))
	}
	fmt.Fprintf(&log, "mem ide sum=%x\n", sum(armIDEBuf, 256*disk.SectorSize))
	for _, lba := range []int64{1000, 1007, 2000, 7000, 200000, 300000, 301000, 400000, 650000, 900000, 900500} {
		fmt.Fprintf(&log, "store %d %s\n", lba, d.Store().SourceAt(lba).Name())
	}
	return log.String()
}

// TestArmScheduleGolden pins the schedule of one drive whose arm is
// contended by an AHCI HBA, an IDE controller and two processes doing
// blocking reads and writes: every completion time, interrupt and byte
// moved must match the recorded golden. Regenerate with -update only for
// an intended change of the modelled behaviour.
func TestArmScheduleGolden(t *testing.T) {
	got := armScheduleRun()
	path := filepath.Join("testdata", "arm_schedule.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := bytes.Split([]byte(got), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("schedule differs from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("schedule differs from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
