package mediator_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/guest"
	"repro/internal/hw/disk"
	"repro/internal/machine"
	"repro/internal/mediator"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// bootRig is one machine booting the guest, bare or under a mediator.
type bootRig struct {
	k  *sim.Kernel
	m  *machine.Machine
	o  *guest.OS
	md mediator.Mediator // nil on bare metal
	be *fakeBackend
}

// newBootRig builds a machine with the given storage controller; with
// mediated set, a BMcast mediator over a fake backend owns the
// controller and the CPUs run under VMX, so the boot's SMP bring-up and
// every controller access trap.
func newBootRig(storage machine.StorageKind, mediated bool) bootRig {
	k := sim.New(11)
	cfg := machine.RX200S6("m0")
	cfg.Storage = storage
	cfg.MemBytes = 256 << 20
	cfg.Disk.Sectors = 1 << 22
	m := machine.New(k, cfg)
	m.Trace = trace.NewRecorder(k)
	m.World.Instrument(metrics.NewRegistry(), m.Trace, m.Name)
	r := bootRig{k: k, m: m, o: guest.NewOS("ubuntu", m)}
	if !mediated {
		return r
	}
	img := disk.NewSynthImage("ubuntu", int64(cfg.Disk.Sectors)*disk.SectorSize, 5)
	region := m.Firmware.ReserveForVMM(16 << 20)
	r.be = newFakeBackend(k, img)
	if storage == machine.StorageIDE {
		md := mediator.NewIDE(m, r.be, region)
		md.Attach()
		r.md = md
	} else {
		md := mediator.NewAHCI(m, r.be, region)
		md.Attach()
		r.md = md
	}
	m.World.EnterVMX()
	return r
}

// bootScheduleProfile is a short boot: reads larger than one driver
// command (so the OS splits them), a write after every third read, and
// think time between reads.
func bootScheduleProfile() guest.BootProfile {
	return guest.BootProfile{
		TotalBytes:  10 * 2560 * disk.SectorSize,
		ReadSectors: 2560,
		ClusterLen:  4,
		SpanSectors: 1 << 20,
		CPUTime:     10 * sim.Millisecond,
		WriteEvery:  3,
		Seed:        7,
	}
}

// bootScheduleRun boots the guest under a deploy span while a second
// process issues blocking reads and writes, and returns the schedule:
// each guest command's issue and completion instant, the boot's
// outcome, every span with its parent link, the exit accounting and,
// when mediated, the mediator's counters.
func bootScheduleRun(t *testing.T, r bootRig) string {
	t.Helper()
	var log bytes.Buffer
	r.o.SetDriver(&loggingDriver{BlockDriver: r.o.Drv, k: r.k, log: &log})
	bp := bootScheduleProfile()
	if r.be != nil {
		// Every other boot read finds its range already deployed and
		// passes through; the rest are redirected.
		for i, op := range bp.Trace() {
			if !op.Write && i%2 == 0 {
				r.be.MarkFilled(op.LBA, op.Count)
			}
		}
	}
	r.k.Spawn("deploy", func(p *sim.Proc) {
		sp := r.m.Trace.Begin(r.m.Name, "test", "deploy")
		err := r.o.Boot(p, sp, bp)
		sp.End()
		fmt.Fprintf(&log, "boot done=%d err=%v booted=%v took=%d\n", p.Now(), err, r.o.Booted, r.o.BootTook)
	})
	r.k.Spawn("bg", func(p *sim.Proc) {
		p.Sleep(3 * sim.Millisecond)
		for i := int64(0); i < 3; i++ {
			if _, err := r.o.ReadSectors(p, 3<<20+i*64, 64, false); err != nil {
				t.Error(err)
			}
			if err := r.o.WriteSectors(p, disk.Payload{LBA: 3<<20 + 4096 + i*64, Count: 64,
				Source: disk.Synth{Seed: i, Label: "bg"}}); err != nil {
				t.Error(err)
			}
		}
	})
	r.k.Run()

	for _, sp := range r.m.Trace.Spans() {
		fmt.Fprintf(&log, "span %d %s/%s %d-%d parent=%d open=%v %v\n",
			sp.ID, sp.Cat, sp.Name, sp.Start, sp.Stop, sp.Parent, sp.Open, sp.Args)
	}
	h := fnv.New64a()
	for _, ev := range r.m.Trace.EventsInCat("cpuvirt") {
		fmt.Fprintf(h, "%d %s %v\n", ev.Time, ev.Name, ev.Args)
	}
	fmt.Fprintf(&log, "exits=%d exit_events_fnv=%x reads=%d writes=%d bytes_read=%d bytes_wrote=%d end=%d\n",
		r.m.World.TotalExits(), h.Sum64(), r.o.Reads.Value(), r.o.Writes.Value(),
		r.o.BytesRead.Value(), r.o.BytesWrote.Value(), r.k.Now())
	if r.md != nil {
		st := r.md.Stats()
		fmt.Fprintf(&log, "guest_commands=%d passed_through=%d redirects=%d redirect_bytes=%d queued=%d dummy_restarts=%d polls=%d\n",
			st.GuestCommands.Value(), st.PassedThrough.Value(), st.Redirects.Value(), st.RedirectBytes.Value(),
			st.QueuedCommands.Value(), st.DummyRestarts.Value(), st.Polls.Value())
		fmt.Fprintf(&log, "fetches=%d guest_reads=%d guest_writes=%d quiesced=%v irqs=%d\n",
			r.be.fetches, r.be.guestR, r.be.guestW, r.md.Quiesced(), r.m.StorageIRQ.Raised)
	}
	return log.String()
}

// TestGuestBootScheduleGolden pins the schedule of a guest boot on both
// controllers, on bare metal and under the BMcast mediator: every guest
// command's issue and completion instant, the boot span tree, the exits
// and the mediator counters must match the recorded golden byte for
// byte. Regenerate with -update only for an intended change of the
// modelled behaviour.
func TestGuestBootScheduleGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		storage  machine.StorageKind
		mediated bool
	}{
		{"ahci-bare", machine.StorageAHCI, false},
		{"ahci-bmcast", machine.StorageAHCI, true},
		{"ide-bare", machine.StorageIDE, false},
		{"ide-bmcast", machine.StorageIDE, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := bootScheduleRun(t, newBootRig(tc.storage, tc.mediated))
			path := filepath.Join("testdata", "boot_schedule_"+tc.name+".golden")
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
		})
	}
}

// loggingDriver logs each command the OS issues to the driver beneath it:
// the instant it is issued and the instant it completes.
type loggingDriver struct {
	guest.BlockDriver
	k   *sim.Kernel
	log *bytes.Buffer
}

func (d *loggingDriver) issued(op string, lba, count int64) {
	fmt.Fprintf(d.log, "%d issue %s lba=%d count=%d\n", d.k.Now(), op, lba, count)
}

func (d *loggingDriver) done(op string, lba, count int64, data []byte, err error) {
	h := fnv.New64a()
	h.Write(data)
	fmt.Fprintf(d.log, "%d done %s lba=%d count=%d err=%v sum=%x\n", d.k.Now(), op, lba, count, err, h.Sum64())
}

func (d *loggingDriver) Submit(r *guest.Request) {
	op := "read"
	if r.Op == guest.OpWrite {
		op = "write"
	}
	lba, count := r.LBA, r.Count
	d.issued(op, lba, count)
	done := r.Done
	r.Done = func() {
		r.Done = done
		d.done(op, lba, count, r.Data, r.Err)
		done()
	}
	d.BlockDriver.Submit(r)
}

// TestBootParksCallerOnce pins the guest I/O path as callbacks. A
// mediated boot parks its caller a fixed number of times — the SMP
// bring-up exits, the driver's initialization and the op stream's one
// park — however many ops the boot issues; and once warm, a guest
// command allocates nothing, on either controller, bare or mediated.
func TestBootParksCallerOnce(t *testing.T) {
	for _, storage := range []machine.StorageKind{machine.StorageAHCI, machine.StorageIDE} {
		t.Run(storage.String(), func(t *testing.T) {
			parks := func(reads int64) int {
				r := newBootRig(storage, true)
				bp := bootScheduleProfile()
				bp.TotalBytes = reads * bp.ReadSectors * disk.SectorSize
				n := 0
				r.k.SetProcHook(func(_ sim.Time, ev sim.ProcEvent, name string) {
					if ev == sim.ProcPark && name == "deploy" {
						n++
					}
				})
				r.k.Spawn("deploy", func(p *sim.Proc) {
					if err := r.o.Boot(p, nil, bp); err != nil {
						t.Error(err)
					}
				})
				r.k.Run()
				if got := r.md.Stats().GuestCommands.Value(); got < 2*reads {
					t.Errorf("%d guest commands for %d split reads", got, reads)
				}
				return n
			}
			few, many := parks(4), parks(24)
			if few != many {
				t.Errorf("a boot of 4 reads parks its caller %d times, of 24 reads %d times: parks grow with the ops", few, many)
			}
			t.Logf("a mediated boot parks its caller %d times", few)

			for _, mediated := range []bool{false, true} {
				r := newBootRig(storage, mediated)
				// Recording trace events allocates; the I/O path does not.
				r.m.Trace = nil
				r.m.World.Instrument(metrics.NewRegistry(), nil, r.m.Name)
				if r.be != nil {
					r.be.MarkFilled(0, 4096) // guest reads pass through
				}
				reqs := sim.NewQueue[bool](r.k, "req")
				r.k.Spawn("guest", func(p *sim.Proc) {
					if err := r.o.Drv.Init(p, nil); err != nil {
						t.Error(err)
						return
					}
					for {
						write, ok := reqs.Pop(p)
						if !ok {
							return
						}
						var err error
						if write {
							err = r.o.WriteSectors(p, disk.Payload{LBA: 2048, Count: 8, Source: disk.Zero})
						} else {
							_, err = r.o.ReadSectors(p, 1024, 8, true)
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				})
				r.k.Run()
				command := func() {
					reqs.Push(false)
					reqs.Push(true)
					r.k.Run()
				}
				for i := 0; i < 16; i++ {
					command()
				}
				if avg := testing.AllocsPerRun(200, command); avg != 0 {
					t.Errorf("mediated=%v: a warm guest read and write allocate %v objects, want 0", mediated, avg)
				}
			}
		})
	}
}
