package guest

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hw/disk"
	"repro/internal/machine"
	"repro/internal/sim"
)

func testMachine(storage machine.StorageKind) (*sim.Kernel, *machine.Machine) {
	k := sim.New(1)
	cfg := machine.RX200S6("m0")
	cfg.MemBytes = 256 << 20
	cfg.Storage = storage
	cfg.Disk.Sectors = 1 << 21 // 1 GB disk for tests
	return k, machine.New(k, cfg)
}

func driversUnderTest(t *testing.T, fn func(t *testing.T, k *sim.Kernel, m *machine.Machine, o *OS)) {
	for _, kind := range []machine.StorageKind{machine.StorageIDE, machine.StorageAHCI} {
		t.Run(kind.String(), func(t *testing.T) {
			k, m := testMachine(kind)
			o := NewOS("ubuntu", m)
			fn(t, k, m, o)
		})
	}
}

func TestDriverInit(t *testing.T) {
	driversUnderTest(t, func(t *testing.T, k *sim.Kernel, m *machine.Machine, o *OS) {
		k.Spawn("os", func(p *sim.Proc) {
			if err := o.Drv.Init(p, nil); err != nil {
				t.Error(err)
			}
		})
		k.Run()
	})
}

func TestWriteReadRoundTrip(t *testing.T) {
	driversUnderTest(t, func(t *testing.T, k *sim.Kernel, m *machine.Machine, o *OS) {
		data := bytes.Repeat([]byte{0x42, 0x24}, 2*disk.SectorSize) // 4 sectors
		k.Spawn("os", func(p *sim.Proc) {
			if err := o.Drv.Init(p, nil); err != nil {
				t.Error(err)
				return
			}
			src := disk.NewBuffer(1000, data, "t")
			if err := o.WriteSectors(p, disk.Payload{LBA: 1000, Count: 4, Source: src}); err != nil {
				t.Error(err)
				return
			}
			got, err := o.ReadSectors(p, 1000, 4, false)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, data) {
				t.Error("round trip mismatch")
			}
		})
		k.Run()
	})
}

func TestLargeTransferSplit(t *testing.T) {
	driversUnderTest(t, func(t *testing.T, k *sim.Kernel, m *machine.Machine, o *OS) {
		k.Spawn("os", func(p *sim.Proc) {
			if err := o.Drv.Init(p, nil); err != nil {
				t.Error(err)
				return
			}
			src := disk.Synth{Seed: 3, Label: "big"}
			// 5000 sectors > MaxTransferSectors: needs splitting.
			if err := o.WriteSectors(p, disk.Payload{LBA: 0, Count: 5000, Source: src}); err != nil {
				t.Error(err)
				return
			}
			if _, err := o.ReadSectors(p, 0, 5000, true); err != nil {
				t.Error(err)
			}
		})
		k.Run()
		if o.Writes.Value() != 3 {
			t.Fatalf("writes = %d, want 3 split commands", o.Writes.Value())
		}
		if m.Disk.Store().SourceAt(4999).Name() != "big" {
			t.Fatal("split write did not cover the full range")
		}
	})
}

func TestSymbolicWriteStaysSymbolic(t *testing.T) {
	driversUnderTest(t, func(t *testing.T, k *sim.Kernel, m *machine.Machine, o *OS) {
		src := disk.Synth{Seed: 9, Label: "workload"}
		k.Spawn("os", func(p *sim.Proc) {
			if err := o.Drv.Init(p, nil); err != nil {
				t.Error(err)
				return
			}
			if err := o.WriteSectors(p, disk.Payload{LBA: 64, Count: 64, Source: src}); err != nil {
				t.Error(err)
			}
		})
		k.Run()
		if got := m.Disk.Store().SourceAt(64); got != disk.SectorSource(src) {
			t.Fatalf("store source = %s, want symbolic workload", got.Name())
		}
	})
}

func TestConcurrentAHCIRequests(t *testing.T) {
	k, m := testMachine(machine.StorageAHCI)
	o := NewOS("ubuntu", m)
	var initDone bool
	sig := k.NewSignal("init")
	k.Spawn("init", func(p *sim.Proc) {
		if err := o.Drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		initDone = true
		sig.Broadcast()
	})
	results := make([]bool, 4)
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn("io", func(p *sim.Proc) {
			p.WaitCond(sig, func() bool { return initDone })
			src := disk.Synth{Seed: int64(i), Label: "c"}
			lba := int64(i) * 10000
			if err := o.WriteSectors(p, disk.Payload{LBA: lba, Count: 128, Source: src}); err != nil {
				t.Error(err)
				return
			}
			if _, err := o.ReadSectors(p, lba, 128, true); err != nil {
				t.Error(err)
				return
			}
			results[i] = true
		})
	}
	k.Run()
	for i, okDone := range results {
		if !okDone {
			t.Fatalf("concurrent request %d did not complete", i)
		}
	}
	for i := 0; i < 4; i++ {
		if m.Disk.Store().SourceAt(int64(i)*10000) == disk.Zero {
			t.Fatalf("write %d lost under concurrency", i)
		}
	}
}

func TestBootOnPreloadedDisk(t *testing.T) {
	k, m := testMachine(machine.StorageAHCI)
	img := disk.NewSynthImage("ubuntu", int64(m.Disk.Sectors)*disk.SectorSize, 11)
	m.SetDiskImage(img)
	o := NewOS("ubuntu", m)
	bp := DefaultBootProfile()
	bp.TotalBytes = 4 << 20 // shrink for test speed
	bp.CPUTime = 2 * sim.Second
	bp.SpanSectors = 1 << 20
	k.Spawn("os", func(p *sim.Proc) {
		if err := o.Boot(p, nil, bp); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if !o.Booted {
		t.Fatal("OS did not boot")
	}
	if o.BootTook < 2*sim.Second || o.BootTook > 5*sim.Second {
		t.Fatalf("boot took %v, want ~2-5s (mostly CPU)", o.BootTook)
	}
	if o.Reads.Value() == 0 || o.Writes.Value() == 0 {
		t.Fatal("boot did no I/O")
	}
}

func TestBootTraceDeterministic(t *testing.T) {
	bp := DefaultBootProfile()
	a, b := bp.Trace(), bp.Trace()
	if len(a) != len(b) {
		t.Fatal("trace length differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d", i)
		}
	}
	var bytes int64
	for _, op := range a {
		if !op.Write {
			bytes += op.Count * disk.SectorSize
		}
	}
	if bytes != 72<<20 {
		t.Fatalf("trace reads %d bytes, want 72 MB", bytes)
	}
}

// TestBootOpsMatchEagerTrace pins the op stream to a reference that
// builds the whole list in one loop, the rng drawn in the same order: a
// cluster base before a cluster's first read, a write's offset right
// after the read it follows.
func TestBootOpsMatchEagerTrace(t *testing.T) {
	eager := func(bp BootProfile, rng *rand.Rand) []BootOp {
		nReads := max(int(bp.TotalBytes/(bp.ReadSectors*disk.SectorSize)), 1)
		think := sim.Duration(int64(bp.CPUTime) / int64(nReads))
		var ops []BootOp
		var base int64
		for i := 0; i < nReads; i++ {
			if i%bp.ClusterLen == 0 {
				limit := bp.SpanSectors - int64(bp.ClusterLen)*bp.ReadSectors
				base = rng.Int63n(limit/bp.ReadSectors) * bp.ReadSectors
			}
			ops = append(ops, BootOp{LBA: base + int64(i%bp.ClusterLen)*bp.ReadSectors, Count: bp.ReadSectors, Think: think})
			if bp.WriteEvery > 0 && i%bp.WriteEvery == bp.WriteEvery-1 {
				wlba := bp.SpanSectors + rng.Int63n(1<<10)*bp.ReadSectors
				ops = append(ops, BootOp{LBA: wlba, Count: bp.ReadSectors, Write: true})
			}
		}
		return ops
	}
	for _, edit := range []func(*BootProfile){
		func(*BootProfile) {},
		func(bp *BootProfile) { bp.WriteEvery = 0 },
		func(bp *BootProfile) { bp.WriteEvery, bp.ClusterLen = 1, 1 },
		func(bp *BootProfile) { bp.TotalBytes, bp.Seed = 1, 9 }, // one read
		func(bp *BootProfile) { bp.TotalBytes, bp.WriteEvery = 6*disk.SectorSize*800, 400 },
	} {
		bp := DefaultBootProfile()
		edit(&bp)
		want := eager(bp, rand.New(rand.NewSource(bp.Seed)))
		if got := bp.Trace(); !slices.Equal(got, want) {
			t.Fatalf("profile %+v: stream of %d ops differs from the eager trace of %d", bp, len(got), len(want))
		}
	}
}

func TestBareMetalBootTime(t *testing.T) {
	// Calibration check: full boot profile on a pre-deployed local disk
	// should take ≈29 s (paper Fig 4, "OS boot" on bare metal). Uses the
	// full testbed disk geometry — seek distances matter here.
	k := sim.New(1)
	cfg := machine.RX200S6("m0")
	cfg.MemBytes = 256 << 20
	m := machine.New(k, cfg)
	m.Disk.Store().Write(0, m.Disk.Sectors, disk.Synth{Seed: 11, Label: "image:ubuntu"})
	o := NewOS("ubuntu", m)
	bp := DefaultBootProfile()
	k.Spawn("os", func(p *sim.Proc) {
		if err := o.Boot(p, nil, bp); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	got := o.BootTook.Seconds()
	if got < 25 || got > 33 {
		t.Fatalf("bare-metal boot = %.1fs, want ~29s", got)
	}
	t.Logf("bare-metal boot time: %.1fs", got)
}

func TestValidateRange(t *testing.T) {
	if err := validateRange(0, MaxTransferSectors+1); err == nil {
		t.Fatal("oversize transfer accepted")
	}
	if err := validateRange(-1, 1); err == nil {
		t.Fatal("negative lba accepted")
	}
	if err := validateRange(0, 0); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestFlush(t *testing.T) {
	driversUnderTest(t, func(t *testing.T, k *sim.Kernel, m *machine.Machine, o *OS) {
		var took sim.Duration
		k.Spawn("os", func(p *sim.Proc) {
			if err := o.Drv.Init(p, nil); err != nil {
				t.Error(err)
				return
			}
			start := p.Now()
			if err := o.Flush(p); err != nil {
				t.Error(err)
			}
			took = p.Now().Sub(start)
		})
		k.Run()
		if took <= 0 {
			t.Fatalf("flush took %v, want the device's flush time", took)
		}
	})
}

// TestSubmitRejectsInline pins the callback contract for a request the
// driver cannot express: it completes, with an error, before Submit
// returns.
func TestSubmitRejectsInline(t *testing.T) {
	driversUnderTest(t, func(t *testing.T, k *sim.Kernel, m *machine.Machine, o *OS) {
		done := false
		r := &Request{Op: OpRead, LBA: 0, Count: MaxTransferSectors + 1, Done: func() { done = true }}
		o.Drv.Submit(r)
		if !done || r.Err == nil {
			t.Fatalf("oversized request: done=%v err=%v, want an inline error", done, r.Err)
		}
	})
}
