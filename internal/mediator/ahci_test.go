package mediator_test

import (
	"bytes"
	"testing"

	"repro/internal/guest"
	"repro/internal/hw/ahci"
	"repro/internal/hw/disk"
	hwio "repro/internal/hw/io"
	"repro/internal/hw/mem"
	"repro/internal/machine"
	"repro/internal/mediator"
	"repro/internal/sim"
)

type ahciRig struct {
	k   *sim.Kernel
	m   *machine.Machine
	o   *guest.OS
	md  *mediator.AHCI
	be  *fakeBackend
	img *disk.Image
}

func newAHCIRig(t *testing.T) *ahciRig {
	t.Helper()
	k := sim.New(13)
	cfg := machine.RX200S6("m0")
	cfg.Storage = machine.StorageAHCI
	cfg.MemBytes = 256 << 20
	cfg.Disk.Sectors = 1 << 20
	m := machine.New(k, cfg)
	img := disk.NewSynthImage("ubuntu", 64<<20, 5)
	region := m.Firmware.ReserveForVMM(16 << 20)
	be := newFakeBackend(k, img)
	md := mediator.NewAHCI(m, be, region)
	md.Attach()
	o := guest.NewOS("ubuntu", m)
	return &ahciRig{k: k, m: m, o: o, md: md, be: be, img: img}
}

func (r *ahciRig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.k.Spawn("guest", func(p *sim.Proc) {
		if err := r.o.Drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		fn(p)
	})
	r.k.Run()
}

func TestAHCIRedirectServesImageContent(t *testing.T) {
	r := newAHCIRig(t)
	var got []byte
	r.run(t, func(p *sim.Proc) {
		b, err := r.o.ReadSectors(p, 200, 16, false)
		if err != nil {
			t.Error(err)
			return
		}
		got = b
	})
	want := make([]byte, 16*disk.SectorSize)
	r.img.ReadAt(200, want)
	if !bytes.Equal(got, want) {
		t.Fatal("redirected AHCI read returned wrong content")
	}
	if r.md.Stats().Redirects.Value() != 1 {
		t.Fatalf("Redirects = %d", r.md.Stats().Redirects.Value())
	}
	// Write-through happened.
	local := make([]byte, 16*disk.SectorSize)
	r.m.Disk.Store().ReadAt(200, local)
	if !bytes.Equal(local, want) {
		t.Fatal("redirect did not write through")
	}
}

func TestAHCIConcurrentSlotsWithRedirects(t *testing.T) {
	// Several guest requests in flight at once: some redirect, some pass
	// through; all must complete with correct content.
	r := newAHCIRig(t)
	r.be.MarkFilled(0, 1000) // low sectors local
	r.m.Disk.Store().Write(0, 1000, r.img)
	results := make([]bool, 6)
	r.k.Spawn("init", func(p *sim.Proc) {
		if err := r.o.Drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 6; i++ {
			i := i
			r.k.Spawn("io", func(wp *sim.Proc) {
				lba := int64(i) * 200 // alternates filled/unfilled regions
				if i%2 == 1 {
					lba = 2000 + int64(i)*500 // unfilled: needs redirect
				}
				b, err := r.o.ReadSectors(wp, lba, 8, false)
				if err != nil {
					t.Error(err)
					return
				}
				want := make([]byte, 8*disk.SectorSize)
				r.img.ReadAt(lba, want)
				if !bytes.Equal(b, want) {
					t.Errorf("slot %d content mismatch at %d", i, lba)
					return
				}
				results[i] = true
			})
		}
	})
	r.k.Run()
	for i, ok := range results {
		if !ok {
			t.Fatalf("concurrent request %d did not complete", i)
		}
	}
	if r.md.Stats().Redirects.Value() == 0 {
		t.Fatal("no redirects occurred")
	}
}

func TestAHCIGuestQueuedDuringInsertion(t *testing.T) {
	r := newAHCIRig(t)
	gsrc := disk.Synth{Seed: 4, Label: "guest"}
	var insertDone, guestDone sim.Time
	r.k.Spawn("guest", func(p *sim.Proc) {
		if err := r.o.Drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		r.k.Spawn("vmm", func(vp *sim.Proc) {
			r.md.InsertWrite(vp, nil, r.img.Payload(8000, 2048), nil)
			insertDone = vp.Now()
		})
		p.Sleep(2 * sim.Millisecond)
		if err := r.o.WriteSectors(p, disk.Payload{LBA: 8100, Count: 8, Source: gsrc}); err != nil {
			t.Error(err)
			return
		}
		guestDone = p.Now()
	})
	r.k.Run()
	if r.md.Stats().QueuedCommands.Value() != 1 {
		t.Fatalf("QueuedCommands = %d, want 1", r.md.Stats().QueuedCommands.Value())
	}
	if guestDone <= insertDone {
		t.Fatalf("guest write at %v before insertion end %v", guestDone, insertDone)
	}
	if got := r.m.Disk.Store().SourceAt(8100); got != disk.SectorSource(gsrc) {
		t.Fatal("queued guest write lost")
	}
}

func TestAHCIProtectedRegion(t *testing.T) {
	r := newAHCIRig(t)
	r.be.protected = mediator.Run{LBA: 900000, Count: 1024}
	secret := disk.Synth{Seed: 0x5EC, Label: "vmm-bitmap"}
	r.m.Disk.Store().Write(900000, 1024, secret)
	r.run(t, func(p *sim.Proc) {
		got, err := r.o.ReadSectors(p, 900000, 8, false)
		if err != nil {
			t.Error(err)
			return
		}
		for _, b := range got {
			if b != 0 {
				t.Error("protected region leaked through AHCI mediator")
				return
			}
		}
		if err := r.o.WriteSectors(p, disk.Payload{LBA: 900000, Count: 8, Source: disk.Synth{Seed: 1}}); err != nil {
			t.Error(err)
		}
	})
	if got := r.m.Disk.Store().SourceAt(900000); got != disk.SectorSource(secret) {
		t.Fatal("protected region overwritten")
	}
}

func TestAHCIDetachZeroTraps(t *testing.T) {
	r := newAHCIRig(t)
	r.be.MarkFilled(0, 1<<19)
	r.run(t, func(p *sim.Proc) {
		if _, err := r.o.ReadSectors(p, 0, 8, true); err != nil {
			t.Error(err)
			return
		}
		if !r.md.Quiesced() {
			t.Error("not quiesced")
			return
		}
		r.md.Detach()
		before := r.m.IO.Traps
		if _, err := r.o.ReadSectors(p, 64, 8, true); err != nil {
			t.Error(err)
			return
		}
		if r.m.IO.Traps != before {
			t.Error("AHCI access trapped after detach")
		}
	})
}

func TestAHCIVMMSlotHiddenFromGuest(t *testing.T) {
	// While a VMM insertion is in flight, the guest's PxCI view must not
	// show the VMM's slot 31.
	r := newAHCIRig(t)
	r.k.Spawn("guest", func(p *sim.Proc) {
		if err := r.o.Drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		r.k.Spawn("vmm", func(vp *sim.Proc) {
			r.md.InsertWrite(vp, nil, r.img.Payload(4000, 2048), nil)
		})
		p.Sleep(3 * sim.Millisecond) // insertion in flight
		ci := r.m.IO.Read(p, nil, 1, 0xF000_0000+0x100+0x38, 4)
		if ci&(1<<31) != 0 {
			t.Error("guest sees the VMM's command slot")
		}
	})
	r.k.Run()
}

func TestAHCIInsertReadRoundTrip(t *testing.T) {
	r := newAHCIRig(t)
	src := disk.Synth{Seed: 21, Label: "x"}
	r.run(t, func(p *sim.Proc) {
		if ok := r.md.InsertWrite(p, nil, disk.Payload{LBA: 3000, Count: 64, Source: src}, nil); !ok {
			t.Error("insert write refused")
			return
		}
		pl, ok := r.md.InsertRead(p, nil, 3000, 64)
		if !ok {
			t.Error("insert read refused")
			return
		}
		if pl.Source != disk.SectorSource(src) {
			t.Error("insert read returned wrong content")
		}
	})
}

// TestAHCICommandOutsideMemory: a guest command whose header, command
// table or data buffer lies outside memory is not a data command to the
// mediator. It passes through, the HBA fails it with a host bus fatal
// error, and the mediator and a later guest read carry on.
func TestAHCICommandOutsideMemory(t *testing.T) {
	size := uint64(256 << 20)
	for _, tc := range []struct {
		name string
		hd   func(clb uint64) (uint64, ahci.CmdHeader) // where the slot's header goes, and what it says
	}{
		{"header", func(clb uint64) (uint64, ahci.CmdHeader) { return size, ahci.CmdHeader{} }},
		{"table", func(clb uint64) (uint64, ahci.CmdHeader) {
			return clb, ahci.CmdHeader{FISLen: 5, PRDTL: 1, CTBA: size - 8}
		}},
		{"buffer", func(clb uint64) (uint64, ahci.CmdHeader) {
			return clb, ahci.CmdHeader{FISLen: 5, PRDTL: 1, CTBA: 0x7000}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newAHCIRig(t)
			const slot = 9
			r.run(t, func(p *sim.Proc) {
				orig := r.m.AHCI.CLB()
				clb, hd := tc.hd(orig)
				if clb != orig {
					// The guest moves its command list past memory.
					r.m.IO.Write(p, nil, hwio.MMIO, ahci.ABAR+ahci.PortBase+ahci.PxCLB, 4, clb)
				} else {
					ahci.WriteFIS(r.m.Mem, 0x7000, ahci.FIS{Command: ahci.CmdReadDMAExt, LBA: 5000, Count: 8})
					ahci.WritePRDT(r.m.Mem, 0x7000, []mem.Region{{Start: int64(size) - 512, Size: 4096}})
					ahci.WriteCmdHeader(r.m.Mem, clb, slot, hd)
				}
				r.m.IO.Write(p, nil, hwio.MMIO, ahci.ABAR+ahci.PortBase+ahci.PxCI, 4, 1<<slot)
				for r.m.AHCI.OutstandingCI()&(1<<slot) != 0 {
					p.Sleep(100 * sim.Microsecond)
				}
				if tfd := r.m.AHCI.IORead(ahci.PortBase+ahci.PxTFD, 4); tfd&ahci.TFDErr == 0 {
					t.Errorf("TFD = %#x, want the error bit", tfd)
				}
				if clb != orig {
					r.m.IO.Write(p, nil, hwio.MMIO, ahci.ABAR+ahci.PortBase+ahci.PxCLB, 4, orig)
				}
				if _, err := r.o.ReadSectors(p, 200, 8, false); err != nil {
					t.Errorf("guest read after the fault: %v", err)
				}
			})
			if st := r.md.Stats(); st.GuestCommands.Value() < 2 || st.Redirects.Value() != 1 {
				t.Errorf("guest commands %d, redirects %d: want the faulted command passed through, the read redirected",
					st.GuestCommands.Value(), st.Redirects.Value())
			}
			if !r.md.Quiesced() {
				t.Error("mediator not quiesced after the faulted command")
			}
		})
	}
}
