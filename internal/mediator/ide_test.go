package mediator_test

import (
	"bytes"
	"testing"

	"repro/internal/guest"
	"repro/internal/hw/disk"
	"repro/internal/hw/ide"
	hwio "repro/internal/hw/io"
	"repro/internal/machine"
	"repro/internal/mediator"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeBackend implements mediator.Backend over a plain filled-set, serving
// fetches straight from an image with a fixed latency.
type fakeBackend struct {
	k         *sim.Kernel
	img       *disk.Image
	filled    map[int64]bool
	protected mediator.Run
	fetches   int
	guestR    int
	guestW    int
	fetchLat  sim.Duration
	fetchErr  error // non-nil: fetches fail after fetchLat (server down)

	// The fetch in flight (a mediator has at most one) and its cached
	// completion, so that a fetch does not allocate.
	run       mediator.Run
	done      func(disk.Payload, error)
	fetchedFn func()
}

func newFakeBackend(k *sim.Kernel, img *disk.Image) *fakeBackend {
	f := &fakeBackend{k: k, img: img, filled: make(map[int64]bool), fetchLat: 300 * sim.Microsecond}
	f.fetchedFn = f.fetched
	return f
}

func (f *fakeBackend) AllFilled(lba, count int64) bool {
	for i := lba; i < lba+count; i++ {
		if !f.filled[i] {
			return false
		}
	}
	return true
}

func (f *fakeBackend) AppendUnfilledRuns(runs []mediator.Run, lba, count int64) []mediator.Run {
	start := len(runs)
	for i := lba; i < lba+count; i++ {
		if f.filled[i] {
			continue
		}
		if n := len(runs); n > start && runs[n-1].End() == i {
			runs[n-1].Count++
		} else {
			runs = append(runs, mediator.Run{LBA: i, Count: 1})
		}
	}
	return runs
}

func (f *fakeBackend) Fetch(_ *trace.Span, lba, count int64, done func(disk.Payload, error)) {
	f.fetches++
	f.run, f.done = mediator.Run{LBA: lba, Count: count}, done
	f.k.After(f.fetchLat, f.fetchedFn)
}

func (f *fakeBackend) fetched() {
	done := f.done
	f.done = nil
	if f.fetchErr != nil {
		done(disk.Payload{}, f.fetchErr)
		return
	}
	done(f.img.Payload(f.run.LBA, f.run.Count), nil)
}

func (f *fakeBackend) MarkFilled(lba, count int64) {
	for i := lba; i < lba+count; i++ {
		f.filled[i] = true
	}
}

func (f *fakeBackend) GuestWrote(lba, count int64) {
	f.guestW++
	f.MarkFilled(lba, count)
}

func (f *fakeBackend) GuestRead(_, _ int64)       { f.guestR++ }
func (f *fakeBackend) PollInterval() sim.Duration { return 100 * sim.Microsecond }
func (f *fakeBackend) Protected(lba, count int64) bool {
	return f.protected.Count > 0 && lba < f.protected.End() && f.protected.LBA < lba+count
}

type ideRig struct {
	k   *sim.Kernel
	m   *machine.Machine
	o   *guest.OS
	md  *mediator.IDE
	be  *fakeBackend
	img *disk.Image
}

func newIDERig(t *testing.T) *ideRig {
	t.Helper()
	k := sim.New(7)
	cfg := machine.RX200S6("m0")
	cfg.Storage = machine.StorageIDE
	cfg.MemBytes = 256 << 20
	cfg.Disk.Sectors = 1 << 20
	m := machine.New(k, cfg)
	img := disk.NewSynthImage("ubuntu", 64<<20, 5)
	vmmRegion := m.Firmware.ReserveForVMM(16 << 20)
	be := newFakeBackend(k, img)
	md := mediator.NewIDE(m, be, vmmRegion)
	md.Attach()
	o := guest.NewOS("ubuntu", m)
	return &ideRig{k: k, m: m, o: o, md: md, be: be, img: img}
}

func (r *ideRig) run(t *testing.T, fn func(p *sim.Proc)) {
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

func TestRedirectServesImageContent(t *testing.T) {
	r := newIDERig(t)
	var got []byte
	r.run(t, func(p *sim.Proc) {
		b, err := r.o.ReadSectors(p, 100, 16, false)
		if err != nil {
			t.Error(err)
			return
		}
		got = b
	})
	want := make([]byte, 16*disk.SectorSize)
	r.img.ReadAt(100, want)
	if !bytes.Equal(got, want) {
		t.Fatal("redirected read returned wrong content")
	}
	if r.md.Stats().Redirects.Value() != 1 {
		t.Fatalf("Redirects = %d, want 1", r.md.Stats().Redirects.Value())
	}
	if r.md.Stats().DummyRestarts.Value() != 1 {
		t.Fatalf("DummyRestarts = %d, want 1", r.md.Stats().DummyRestarts.Value())
	}
	if !r.be.AllFilled(100, 16) {
		t.Fatal("redirect did not mark blocks filled")
	}
	// Copy-on-read must have written through to the local disk.
	local := make([]byte, 16*disk.SectorSize)
	r.m.Disk.Store().ReadAt(100, local)
	if !bytes.Equal(local, want) {
		t.Fatal("redirect did not write through to the local disk")
	}
}

func TestSecondReadIsLocal(t *testing.T) {
	r := newIDERig(t)
	r.run(t, func(p *sim.Proc) {
		if _, err := r.o.ReadSectors(p, 100, 16, false); err != nil {
			t.Error(err)
			return
		}
		if _, err := r.o.ReadSectors(p, 100, 16, false); err != nil {
			t.Error(err)
		}
	})
	if r.md.Stats().Redirects.Value() != 1 {
		t.Fatalf("Redirects = %d, want 1 (second read local)", r.md.Stats().Redirects.Value())
	}
	if r.be.fetches != 1 {
		t.Fatalf("fetches = %d, want 1", r.be.fetches)
	}
}

func TestPartiallyFilledReadMerges(t *testing.T) {
	r := newIDERig(t)
	// Pre-fill sectors 104..108 with guest data on the local disk.
	guestSrc := disk.Synth{Seed: 99, Label: "guest-data"}
	r.run(t, func(p *sim.Proc) {
		if err := r.o.WriteSectors(p, disk.Payload{LBA: 104, Count: 4, Source: guestSrc}); err != nil {
			t.Error(err)
			return
		}
		got, err := r.o.ReadSectors(p, 100, 16, false)
		if err != nil {
			t.Error(err)
			return
		}
		// Expected: image content except 104..108 which is guest data.
		want := make([]byte, 16*disk.SectorSize)
		r.img.ReadAt(100, want)
		guestSrc.Fill(104, want[4*disk.SectorSize:8*disk.SectorSize])
		if !bytes.Equal(got, want) {
			t.Error("merged read lost guest-written data")
		}
	})
}

func TestGuestWritePassesThrough(t *testing.T) {
	r := newIDERig(t)
	src := disk.Synth{Seed: 3, Label: "w"}
	r.run(t, func(p *sim.Proc) {
		if err := r.o.WriteSectors(p, disk.Payload{LBA: 500, Count: 8, Source: src}); err != nil {
			t.Error(err)
		}
	})
	if r.md.Stats().Redirects.Value() != 0 {
		t.Fatal("write triggered a redirect")
	}
	if r.be.guestW != 1 {
		t.Fatalf("GuestWrote calls = %d, want 1", r.be.guestW)
	}
	if got := r.m.Disk.Store().SourceAt(500); got != disk.SectorSource(src) {
		t.Fatal("guest write did not reach the local disk")
	}
}

func TestInsertWriteWhileGuestIdle(t *testing.T) {
	r := newIDERig(t)
	irqsBefore := r.m.StorageIRQ.Raised
	r.run(t, func(p *sim.Proc) {
		ok := r.md.InsertWrite(p, nil, r.img.Payload(2000, 128), nil)
		if !ok {
			t.Error("InsertWrite refused")
		}
	})
	if r.m.Disk.Store().SourceAt(2000) != disk.SectorSource(r.img) {
		t.Fatal("inserted write did not land")
	}
	// The VMM's request must not interrupt the guest. (Driver init's
	// IDENTIFY raises one IRQ; nothing after.)
	if extra := r.m.StorageIRQ.Raised - irqsBefore; extra != 1 {
		t.Fatalf("IRQs raised = %d, want 1 (identify only)", extra)
	}
	if r.md.Stats().Polls.Value() == 0 {
		t.Fatal("insertion did not poll for completion")
	}
}

func TestInsertWriteGuardAborts(t *testing.T) {
	r := newIDERig(t)
	r.run(t, func(p *sim.Proc) {
		if r.md.InsertWrite(p, nil, r.img.Payload(2000, 8), func() bool { return false }) {
			t.Error("guarded InsertWrite proceeded")
		}
	})
	if r.m.Disk.Store().SourceAt(2000) != disk.Zero {
		t.Fatal("aborted insertion still wrote")
	}
}

func TestGuestCommandQueuedDuringInsertion(t *testing.T) {
	r := newIDERig(t)
	gsrc := disk.Synth{Seed: 4, Label: "guest"}
	var insertDone, guestDone sim.Time
	r.k.Spawn("guest", func(p *sim.Proc) {
		if err := r.o.Drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		// Start a large VMM insertion, then immediately issue a guest
		// write; the write must be queued and execute after.
		r.k.Spawn("vmm", func(vp *sim.Proc) {
			r.md.InsertWrite(vp, nil, r.img.Payload(4000, 2048), nil) // 1 MB
			insertDone = vp.Now()
		})
		p.Sleep(2 * sim.Millisecond) // insertion now owns the device
		if err := r.o.WriteSectors(p, disk.Payload{LBA: 4100, Count: 8, Source: gsrc}); err != nil {
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
		t.Fatalf("guest write finished at %v before insertion at %v", guestDone, insertDone)
	}
	// The guest write targeted a range inside the VMM's insertion and
	// executed after it: guest data must win.
	if got := r.m.Disk.Store().SourceAt(4100); got != disk.SectorSource(gsrc) {
		t.Fatalf("store source = %s, want guest data", got.Name())
	}
	if got := r.m.Disk.Store().SourceAt(4099); got != disk.SectorSource(r.img) {
		t.Fatal("VMM data missing around the guest write")
	}
}

func TestProtectedRegionHidden(t *testing.T) {
	r := newIDERig(t)
	r.be.protected = mediator.Run{LBA: 900000, Count: 1024}
	// Seed the protected region with "bitmap" content.
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
				t.Error("protected region leaked data to the guest")
				return
			}
		}
		// Guest write to the protected region must be dropped.
		if err := r.o.WriteSectors(p, disk.Payload{LBA: 900000, Count: 8, Source: disk.Synth{Seed: 1}}); err != nil {
			t.Error(err)
		}
	})
	if got := r.m.Disk.Store().SourceAt(900000); got != disk.SectorSource(secret) {
		t.Fatal("guest write clobbered the protected region")
	}
	if r.md.Stats().ProtectedHits.Value() != 2 {
		t.Fatalf("ProtectedHits = %d, want 2", r.md.Stats().ProtectedHits.Value())
	}
}

func TestDetachRestoresBareMetal(t *testing.T) {
	r := newIDERig(t)
	r.be.MarkFilled(0, 1<<19) // pretend deployment finished for low half
	r.run(t, func(p *sim.Proc) {
		if _, err := r.o.ReadSectors(p, 0, 8, true); err != nil {
			t.Error(err)
			return
		}
		if !r.md.Quiesced() {
			t.Error("mediator not quiesced while guest idle")
			return
		}
		r.md.Detach()
		trapsAfter := r.m.IO.Traps
		if _, err := r.o.ReadSectors(p, 64, 8, true); err != nil {
			t.Error(err)
			return
		}
		if r.m.IO.Traps != trapsAfter {
			t.Error("guest access trapped after detach")
		}
	})
}

func TestExitsChargedDuringMediation(t *testing.T) {
	r := newIDERig(t)
	r.run(t, func(p *sim.Proc) {
		if _, err := r.o.ReadSectors(p, 0, 8, true); err != nil {
			t.Error(err)
		}
	})
	if r.m.World.TotalExits() == 0 {
		t.Fatal("no VM exits charged for tapped I/O")
	}
}

// TestIDECommandOutsideMemory: a guest READ DMA whose PRD table or data
// buffer lies outside memory is not a data command to the mediator. It
// passes through, the controller fails it with a bus-master error, and
// the mediator and a later guest read carry on.
func TestIDECommandOutsideMemory(t *testing.T) {
	const size = 256 << 20
	for _, tc := range []struct {
		name string
		prdt uint64 // the bus-master PRD table address the guest sets
	}{
		{"table", 0xF000_0000},
		{"buffer", 0x7000}, // one entry naming 4 KiB at the last 512 bytes
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newIDERig(t)
			r.run(t, func(p *sim.Proc) {
				ide.WritePRDTable(r.m.Mem, 0x7000, size-512, 4096)
				out := func(addr int64, v uint64) { r.m.IO.Write(p, nil, hwio.PIO, addr, 1, v) }
				in := func(addr int64) uint64 { return r.m.IO.Read(p, nil, hwio.PIO, addr, 1) }
				r.m.IO.Write(p, nil, hwio.PIO, 0xC000+ide.BMRegPRDT, 4, tc.prdt)
				out(0x1F0+ide.RegSectorCount, 8)
				out(0x1F0+ide.RegLBALow, 0x88)
				out(0x1F0+ide.RegLBAMid, 0x13)
				out(0x1F0+ide.RegLBAHigh, 0)
				out(0x1F0+ide.RegDevice, ide.DeviceLBA)
				out(0x1F0+ide.RegStatusCmd, ide.CmdReadDMA)
				out(0xC000+ide.BMRegCmd, ide.BMCmdStart|ide.BMCmdRead)
				for in(0x1F0+ide.RegStatusCmd)&ide.StatusBSY != 0 {
					p.Sleep(100 * sim.Microsecond)
				}
				if st := in(0x1F0 + ide.RegStatusCmd); st&ide.StatusERR == 0 {
					t.Errorf("status = %#x, want the error bit", st)
				}
				if bs := in(0xC000 + ide.BMRegStatus); bs&ide.BMStatusError == 0 {
					t.Errorf("bus-master status = %#x, want the error bit", bs)
				}
				out(0xC000+ide.BMRegCmd, 0)
				out(0xC000+ide.BMRegStatus, ide.BMStatusIRQ|ide.BMStatusError)
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
