package mediator_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/hw/disk"
	"repro/internal/machine"
	"repro/internal/mediator"
	"repro/internal/sim"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// schedRig is the controller-independent view of a mediator test rig.
type schedRig struct {
	k          *sim.Kernel
	m          *machine.Machine
	o          *guest.OS
	md         mediator.Mediator
	be         *fakeBackend
	img        *disk.Image
	virtualIRQ func(on bool)
}

func ideSchedRig(t *testing.T) schedRig {
	r := newIDERig(t)
	return schedRig{r.k, r.m, r.o, r.md, r.be, r.img, func(on bool) { r.md.VirtualIRQ = on }}
}

func ahciSchedRig(t *testing.T) schedRig {
	r := newAHCIRig(t)
	return schedRig{r.k, r.m, r.o, r.md, r.be, r.img, func(on bool) { r.md.VirtualIRQ = on }}
}

// mediatedScheduleRun drives a fixed scenario through one mediator and
// returns its schedule: every guest and VMM process's spawn and exit, every guest outcome with a checksum of
// the data read, every mediator span with its open and close times, and
// the final counters. The scenario covers a partly
// filled read (gaps and runs), protected reads and writes, a pass-through
// write and read, guest commands queued behind an insertion and replayed,
// a guard-cancelled insertion, an insert read, a fetch failure with the
// server down, and the VirtualIRQ completion path.
func mediatedScheduleRun(t *testing.T, r schedRig) string {
	t.Helper()
	var log bytes.Buffer
	r.m.Trace = trace.NewRecorder(r.k)
	r.k.SetProcHook(func(at sim.Time, ev sim.ProcEvent, name string) {
		// How the mediator, the controller and the guest driver run their
		// own work is not part of the schedule: the processes the
		// mediator may start for a redirect or protect, a controller's
		// command engine, and the parks of a guest or VMM process blocked
		// inside a driver request or an insertion, are left out. Every
		// guest and VMM process's spawn and exit is pinned.
		if strings.HasSuffix(name, ".med.redirect") || strings.HasSuffix(name, ".med.protect") ||
			strings.HasSuffix(name, ".engine") {
			return
		}
		if ev == sim.ProcPark || ev == sim.ProcWake {
			return
		}
		fmt.Fprintf(&log, "%d %s %s\n", at, ev, name)
	})
	r.be.protected = mediator.Run{LBA: 900000, Count: 1024}
	r.m.Disk.Store().Write(900000, 1024, disk.Synth{Seed: 0x5EC, Label: "vmm-bitmap"})
	// Local data with two filled islands inside the partly filled read.
	local := disk.Synth{Seed: 99, Label: "local"}
	for _, run := range []mediator.Run{{LBA: 100, Count: 4}, {LBA: 110, Count: 2}} {
		r.m.Disk.Store().Write(run.LBA, run.Count, local)
		r.be.MarkFilled(run.LBA, run.Count)
	}

	outcome := func(op string, lba, count int64, data []byte, err error) {
		h := fnv.New64a()
		h.Write(data)
		fmt.Fprintf(&log, "guest %s lba=%d count=%d done=%d err=%v sum=%x\n",
			op, lba, count, r.k.Now(), err, h.Sum64())
	}
	read := func(p *sim.Proc, lba, count int64) {
		b, err := r.o.ReadSectors(p, lba, count, false)
		outcome("read", lba, count, b, err)
	}
	write := func(p *sim.Proc, lba, count int64, seed int64) {
		err := r.o.WriteSectors(p, disk.Payload{LBA: lba, Count: count, Source: disk.Synth{Seed: seed, Label: "guest"}})
		outcome("write", lba, count, nil, err)
	}
	insert := func(lba, count int64, guard func() bool) {
		r.k.Spawn("vmm", func(p *sim.Proc) {
			ok := r.md.InsertWrite(p, nil, r.img.Payload(lba, count), guard)
			fmt.Fprintf(&log, "vmm insert-write lba=%d count=%d done=%d ok=%v\n", lba, count, p.Now(), ok)
		})
	}

	r.k.Spawn("guest", func(p *sim.Proc) {
		if err := r.o.Drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		read(p, 96, 24) // runs and gaps: [96,100) [104,110) [112,120) unfilled
		write(p, 5000, 8, 1)
		read(p, 5000, 8) // filled by the guest write: passes through
		read(p, 900000, 8)
		write(p, 900004, 8, 2)

		// Guest commands issued while an insertion owns the device are
		// queued and replayed: a read needing redirection and a write.
		insert(8000, 2048, nil)
		p.Sleep(2 * sim.Millisecond)
		done := r.k.NewSignal("queued")
		pending := 2
		r.k.Spawn("guest.q1", func(q *sim.Proc) {
			read(q, 20000, 16)
			pending--
			done.Broadcast()
		})
		r.k.Spawn("guest.q2", func(q *sim.Proc) {
			write(q, 8100, 8, 3)
			pending--
			done.Broadcast()
		})
		p.WaitCond(done, func() bool { return pending == 0 })

		// A guard-cancelled insertion while a guest read is in flight,
		// then an insert read of the range.
		r.k.Spawn("guest.g", func(q *sim.Proc) { read(q, 30100, 64) })
		insert(30000, 64, func() bool { return false })
		p.Sleep(20 * sim.Millisecond)
		r.k.Spawn("vmm", func(vp *sim.Proc) {
			pl, ok := r.md.InsertRead(vp, nil, 30000, 64)
			fmt.Fprintf(&log, "vmm insert-read lba=%d count=%d done=%d ok=%v src=%s\n",
				pl.LBA, pl.Count, vp.Now(), ok, pl.Source.Name())
		})
		p.Sleep(20 * sim.Millisecond)

		// The storage server is down: the redirect fails the command.
		r.be.fetchErr = errors.New("server down")
		read(p, 40000, 8)
		r.be.fetchErr = nil

		// Completion by injected interrupt instead of the dummy restart.
		r.virtualIRQ(true)
		read(p, 50000, 8)
		read(p, 900100, 8)
		r.virtualIRQ(false)
		read(p, 50000, 8)
	})
	r.k.Run()

	for _, sp := range r.m.Trace.SpansInCat("mediator") {
		fmt.Fprintf(&log, "span %d %s %d-%d parent=%d open=%v %v\n",
			sp.ID, sp.Name, sp.Start, sp.Stop, sp.Parent, sp.Open, sp.Args)
	}
	st := r.md.Stats()
	fmt.Fprintf(&log, "guest_commands=%d passed_through=%d redirects=%d redirect_bytes=%d inserted=%d inserted_bytes=%d\n",
		st.GuestCommands.Value(), st.PassedThrough.Value(), st.Redirects.Value(), st.RedirectBytes.Value(),
		st.Inserted.Value(), st.InsertedBytes.Value())
	fmt.Fprintf(&log, "queued=%d dummy_restarts=%d polls=%d protected_hits=%d\n",
		st.QueuedCommands.Value(), st.DummyRestarts.Value(), st.Polls.Value(), st.ProtectedHits.Value())
	fmt.Fprintf(&log, "fetches=%d guest_reads=%d guest_writes=%d quiesced=%v irqs=%d end=%d\n",
		r.be.fetches, r.be.guestR, r.be.guestW, r.md.Quiesced(), r.m.StorageIRQ.Raised, r.k.Now())
	for _, lba := range []int64{96, 100, 8099, 8100, 20000, 30000, 40000, 50000, 900004} {
		fmt.Fprintf(&log, "store %d %s\n", lba, r.m.Disk.Store().SourceAt(lba).Name())
	}
	return log.String()
}

// TestMediatedScheduleGolden pins the event schedule of both mediators:
// every guest and VMM process spawn and exit, guest outcome, mediator
// span and counter must match the recorded golden byte for byte. Regenerate with -update
// only for an intended change of the modelled behaviour.
func TestMediatedScheduleGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		rig  func(*testing.T) schedRig
	}{
		{"ahci", ahciSchedRig},
		{"ide", ideSchedRig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := tc.rig(t)
			got := mediatedScheduleRun(t, rig)
			// The fetch failure is a trace event, not a schedule change.
			var failed []string
			for _, ev := range rig.m.Trace.EventsInCat("mediator") {
				failed = append(failed, fmt.Sprintf("%d %s %v", ev.Time, ev.Name, ev.Args))
			}
			if len(failed) != 1 || !strings.Contains(failed[0], "fetch-failed [{lba 40000} {count 8} {err server down}]") {
				t.Errorf("mediator events = %q, want one fetch-failed at lba 40000", failed)
			}
			path := filepath.Join("testdata", "mediated_schedule_"+tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
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

// TestRedirectAllocs pins the allocations of one steady-state copy-on-
// read redirect through each mediator: a guest read of an unfilled range
// is taken over, fetched from the backend, written through, copied into
// the guest's buffer and completed by the dummy restart. The operation
// record, its continuations and the scratch are pooled, so once warm a
// redirect allocates nothing.
func TestRedirectAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		rig  func(*testing.T) schedRig
	}{
		{"ahci", ahciSchedRig},
		{"ide", ideSchedRig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.rig(t)
			const base, warm, runs = 100000, 64, 256
			// The fake backend's filled set is a map: give it every
			// sector up front so that marking a run filled does not grow it.
			for lba := int64(base); lba < base+8*(warm+runs+1); lba++ {
				r.be.filled[lba] = false
			}
			reqs := sim.NewQueue[int64](r.k, "req")
			completed := 0
			r.k.Spawn("guest", func(p *sim.Proc) {
				if err := r.o.Drv.Init(p, nil); err != nil {
					t.Error(err)
					return
				}
				for {
					lba, ok := reqs.Pop(p)
					if !ok {
						return
					}
					if _, err := r.o.ReadSectors(p, lba, 8, true); err != nil {
						t.Error(err)
						return
					}
					completed++
				}
			})
			r.k.Run()
			lba := int64(base)
			redirect := func() {
				reqs.Push(lba)
				lba += 8
				r.k.Run()
			}
			for i := 0; i < warm; i++ {
				redirect()
			}
			avg := testing.AllocsPerRun(runs, redirect)
			if completed != warm+runs+1 || r.md.Stats().Redirects.Value() != int64(completed) {
				t.Fatalf("%d reads completed, %d redirects", completed, r.md.Stats().Redirects.Value())
			}
			if avg != 0 {
				t.Fatalf("one steady-state redirect allocates %.1f objects, want 0", avg)
			}
		})
	}
}
