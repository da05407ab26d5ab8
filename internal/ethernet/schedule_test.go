package ethernet

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// arrivalLog is the receiving end of the faulted-link schedule test: it
// logs every arrival with its frame tag and which copy of the frame it is
// (0 for the first, 1 for a duplicate).
type arrivalLog struct {
	k      *sim.Kernel
	copies map[int]int
	log    *bytes.Buffer
}

func (a *arrivalLog) Deliver(f *Frame) {
	tag := f.Payload.(int)
	fmt.Fprintf(a.log, "%d tag=%d copy=%d size=%d\n", a.k.Now(), tag, a.copies[tag], f.Size)
	a.copies[tag]++
}

// faultedLinkSchedule sends mixed-size bursts through one link direction
// with loss, corruption, duplication and reordering all enabled, and
// returns every arrival and the direction's counters. Reordered frames
// and duplicates land ahead of frames already queued on the wire, so the
// schedule pins the arrival order of out-of-order inserts.
func faultedLinkSchedule() string {
	k := sim.New(7)
	p := GigabitJumbo()
	p.LossRate = 0.05
	l := NewLink(k, p)
	l.SetCorruptRate(DirA2B, 0.05)
	l.SetDuplicateRate(DirA2B, 0.2)
	l.SetReorderRate(DirA2B, 0.2)
	var log bytes.Buffer
	l.AttachB(&arrivalLog{k: k, copies: map[int]int{}, log: &log})
	sizes := []int64{64, 9000, 1500, 200, 4000, 64, 64, 9018, 700}
	tag := 0
	burst := func(n int) {
		for i := 0; i < n; i++ {
			l.SendFromA(&Frame{Src: 1, Dst: 2, Size: sizes[tag%len(sizes)], Payload: tag})
			tag++
		}
	}
	// A long burst that queues hundreds of frames, a second burst while
	// the first is still draining, and short bursts after it has drained.
	k.At(0, func() { burst(300) })
	k.At(sim.Time(5*sim.Millisecond), func() { burst(40) })
	for i := 0; i < 4; i++ {
		k.At(sim.Time(20*sim.Millisecond+sim.Duration(i)*sim.Millisecond), func() { burst(3) })
	}
	k.Run()
	d := l.a2b
	fmt.Fprintf(&log, "sent=%d delivered=%d dropped=%d corrupted=%d duplicated=%d reordered=%d bytes=%d end=%d\n",
		tag, d.delivered.Value(), d.dropped.Value(), d.corrupted.Value(), d.dups.Value(),
		d.reordered.Value(), d.bytes.Value(), k.Now())
	return log.String()
}

// TestFaultedLinkScheduleGolden pins the arrival schedule of one faulted
// link direction byte for byte: every arrival's time, frame and copy, and
// the direction's counters. Regenerate with -update only for an intended
// change of the modelled behaviour.
func TestFaultedLinkScheduleGolden(t *testing.T) {
	got := faultedLinkSchedule()
	path := filepath.Join("testdata", "faulted_link.golden")
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
}
