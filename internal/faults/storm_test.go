package faults

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/sim"
)

func TestStormScheduleLowering(t *testing.T) {
	sc := StormConfig{
		At:     60 * sim.Second,
		For:    30 * sim.Second,
		Links:  []string{"node0.vmm", "node1.vmm"},
		Server: "server", Crashes: 2,
		MediaErrs: 2, MediaErrLBA: 128, MediaErrCount: 64,
	}
	s := sc.Schedule()
	// 2 links × (down+up) + 2 × (crash+restart) + 2 mediaerr = 10 events.
	if len(s.Events) != 10 {
		t.Fatalf("storm lowered to %d events, want 10:\n%s", len(s.Events), s)
	}
	// The window boundaries: every linkdown at At, every linkup at At+For.
	for _, ev := range s.Events {
		switch ev.Kind {
		case LinkDown:
			if ev.At != sc.At {
				t.Errorf("linkdown %s at %v, want %v", ev.Target, ev.At, sc.At)
			}
		case LinkUp:
			if ev.At != sc.At+sc.For {
				t.Errorf("linkup %s at %v, want %v", ev.Target, ev.At, sc.At+sc.For)
			}
		case Restart:
			if ev.At >= sc.At+sc.For {
				t.Errorf("restart at %v, after the storm window", ev.At)
			}
		}
	}
	// Crash/restart cycles: crash at 60s and 75s, restarts half a slot on.
	var crashes, restarts []sim.Duration
	for _, ev := range s.Events {
		if ev.Kind == Crash {
			crashes = append(crashes, ev.At)
		}
		if ev.Kind == Restart {
			restarts = append(restarts, ev.At)
		}
	}
	if len(crashes) != 2 || crashes[0] != 60*sim.Second || crashes[1] != 75*sim.Second {
		t.Fatalf("crash times %v, want [60s 75s]", crashes)
	}
	if len(restarts) != 2 || restarts[0] != 67500*sim.Millisecond {
		t.Fatalf("restart times %v, want first at 67.5s", restarts)
	}
	// Events are time-sorted like Parse output.
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].At < s.Events[i-1].At {
			t.Fatalf("events not sorted: %s", s)
		}
	}
}

// TestStormScheduleRoundTrip: a lowered storm survives the schedule
// grammar's Parse/String round trip — the storm is plain schedule events.
func TestStormScheduleRoundTrip(t *testing.T) {
	sc := StormConfig{
		At: 10 * sim.Second, For: 5 * sim.Second,
		Links:  []string{"node0.vmm"},
		Server: "server", Crashes: 1, MediaErrs: 1, MediaErrCount: 32,
	}
	s := sc.Schedule()
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-parse of lowered storm %q: %v", s.String(), err)
	}
	if s.String() != s2.String() {
		t.Fatalf("round trip mismatch:\n %s\n %s", s, s2)
	}
}

func TestParseStormRoundTrip(t *testing.T) {
	in := "at=1m0s,for=30s,links=node0.vmm+node1.vmm,server=server,crashes=2,mediaerr=2,lba=128,sectors=64"
	sc, err := ParseStorm(in)
	if err != nil {
		t.Fatal(err)
	}
	if sc.At != 60*sim.Second || sc.For != 30*sim.Second || len(sc.Links) != 2 ||
		sc.Server != "server" || sc.Crashes != 2 || sc.MediaErrs != 2 ||
		sc.MediaErrLBA != 128 || sc.MediaErrCount != 64 {
		t.Fatalf("parsed storm = %+v", sc)
	}
	if got := sc.String(); got != in {
		t.Fatalf("String = %q, want %q", got, in)
	}
	sc2, err := ParseStorm(sc.String())
	if err != nil {
		t.Fatal(err)
	}
	if sc2.String() != sc.String() {
		t.Fatalf("round trip mismatch: %q vs %q", sc2, sc)
	}
}

func TestParseStormDefaultsAndErrors(t *testing.T) {
	sc, err := ParseStorm("at=5s,for=10s,server=server,mediaerr=1")
	if err != nil {
		t.Fatal(err)
	}
	if sc.MediaErrCount != 64 {
		t.Fatalf("default mediaerr sectors = %d, want 64", sc.MediaErrCount)
	}
	for _, bad := range []string{
		"at=xx",                    // bad duration
		"bogus=1",                  // unknown key
		"at",                       // not key=value
		"crashes=2",                // crashes without server
		"mediaerr=1",               // mediaerr without server
		"server=server,crashes=-1", // negative burst
		"lba=1",                    // lba without mediaerr
		"server=server,sectors=8",  // sectors without mediaerr
	} {
		if _, err := ParseStorm(bad); err == nil {
			t.Errorf("ParseStorm(%q) accepted", bad)
		}
	}
}

// TestStormOverlappingWindowsSameTarget: two overlapping media-error
// windows on the same target stack rather than clobbering — the earlier
// window's expiry does not clear the later one — and overlapping
// link-down windows resolve by last event applied.
func TestStormOverlappingWindowsSameTarget(t *testing.T) {
	r := newRig(t)
	// Windows [10ms, 110ms) and [60ms, 260ms) overlap on the same LBA.
	s, err := Parse("10ms mediaerr server 0 64 100ms; 60ms mediaerr server 0 64 200ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.inj.Apply(s); err != nil {
		t.Fatal(err)
	}
	tgt := r.srv.Target(0, 0)
	at := func(d sim.Duration, want bool, desc string) {
		r.k.After(d, func() {
			if got := tgt.HasMediaError(0, r.k.Now()); got != want {
				t.Errorf("%s: media error = %v, want %v", desc, got, want)
			}
		})
	}
	at(5*sim.Millisecond, false, "before both windows")
	at(80*sim.Millisecond, true, "inside the overlap")
	at(150*sim.Millisecond, true, "after first expiry, inside second window")
	at(300*sim.Millisecond, false, "after both windows")
	r.k.Run()
}

// TestZeroDurationEvents: a zero-length storm window emits linkdown and
// linkup at the same instant; stable ordering applies the down first and
// the up last, leaving the link up — a degenerate but legal schedule.
func TestZeroDurationEvents(t *testing.T) {
	r := newRig(t)
	sc := StormConfig{At: 10 * sim.Millisecond, For: 0, Links: []string{"l"}}
	s := sc.Schedule()
	if len(s.Events) != 2 || s.Events[0].Kind != LinkDown || s.Events[1].Kind != LinkUp {
		t.Fatalf("zero-duration storm events: %s", s)
	}
	if err := r.inj.Apply(s); err != nil {
		t.Fatal(err)
	}
	r.k.After(20*sim.Millisecond, func() {
		if r.link.Down(ethernet.DirBoth) {
			t.Error("link left down after zero-duration storm")
		}
	})
	r.k.Run()
	if got := r.inj.Injected.Value(); got != 2 {
		t.Fatalf("Injected = %d, want 2", got)
	}
	// A zero-window mediaerr is also legal: the window expires instantly.
	if _, err := Parse("1s mediaerr server 0 64 0s"); err != nil {
		t.Fatalf("zero-window mediaerr rejected: %v", err)
	}
	// String keeps zero-duration storms parseable.
	if _, err := ParseStorm(sc.String()); err != nil {
		t.Fatalf("zero-duration storm string %q rejected: %v", sc.String(), err)
	}
	if !strings.Contains(sc.String(), "for=0s") {
		t.Fatalf("storm string %q lost the zero window", sc.String())
	}
}

// FuzzParseStorm checks the storm grammar the way FuzzParse checks the
// schedule grammar: errors, not panics, and ParseStorm(sc.String()) == sc
// for every accepted storm. Seed corpus: testdata/fuzz/FuzzParseStorm.
func FuzzParseStorm(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		sc, err := ParseStorm(in)
		if err != nil {
			return
		}
		again, err := ParseStorm(sc.String())
		if err != nil {
			t.Fatalf("ParseStorm(%q) rendered as %q, which does not parse: %v", in, sc, err)
		}
		if !reflect.DeepEqual(again, sc) {
			t.Fatalf("ParseStorm(%q) = %#v, but its rendering %q parses as %#v", in, sc, sc, again)
		}
	})
}
