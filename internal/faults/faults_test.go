package faults

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/hw/disk"
	"repro/internal/hw/nic"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vblade"
)

func TestParseRoundTrip(t *testing.T) {
	in := "0s linkdown node0.vmm; 500ms linkup node0.vmm; 1s partition node0.guest tx; " +
		"1.5s loss server 0.05; 2s corrupt server 0.1 rx; 2.5s dup node0.vmm 0.01; " +
		"3s reorder node0.vmm 0.02 tx; 4s crash server; 6s restart server; " +
		"7s mediaerr server 1024 2048 500ms"
	s, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 10 {
		t.Fatalf("parsed %d events, want 10", len(s.Events))
	}
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", s.String(), err)
	}
	if s.String() != s2.String() {
		t.Fatalf("round trip mismatch:\n %s\n %s", s, s2)
	}
}

func TestParseSortsByTime(t *testing.T) {
	s, err := Parse("2s crash server; 1s linkdown l; 1s loss l 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Events[0].Kind != LinkDown || s.Events[1].Kind != Loss || s.Events[2].Kind != Crash {
		t.Fatalf("events not stably sorted by time: %v", s)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"1s explode server",         // unknown verb
		"xx crash server",           // bad time
		"1s loss server",            // missing rate
		"1s loss server 1.5",        // rate out of range
		"1s loss server NaN",        // rate not a number
		"1s partition l both",       // partition must be one-way
		"1s partition l",            // partition needs a direction
		"1s linkdown l sideways",    // bad direction
		"1s crash server now",       // crash takes no args
		"1s mediaerr server 1 2",    // mediaerr needs a window
		"1s mediaerr server 1 0 1s", // non-positive count
		"-1s crash server",          // negative time
		"1s",                        // too short
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// rig assembles a kernel, a link pair through a switch, and a vblade server
// for injector tests.
type rig struct {
	k    *sim.Kernel
	inj  *Injector
	link *ethernet.Link
	srv  *vblade.Server
	reg  *metrics.Registry
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.New(7)
	sw := ethernet.NewSwitch(k, "sw", 5*sim.Microsecond)
	link := sw.Connect(ethernet.GigabitJumbo())
	svLink := sw.Connect(ethernet.GigabitJumbo())
	img := disk.NewSynthImage("img", 1<<20, 3)
	servNIC := nic.New(k, "sv0", nic.IntelX540, 0x01, svLink)
	srv := vblade.NewServer(k, servNIC, 1)
	srv.AddTarget(0, 0, img)
	srv.Start()
	inj := NewInjector(k)
	reg := metrics.NewRegistry()
	inj.Instrument(reg, nil)
	inj.RegisterLink("l", link)
	inj.RegisterServer("server", srv)
	return &rig{k: k, inj: inj, link: link, srv: srv, reg: reg}
}

func TestApplyRejectsUnknownTargets(t *testing.T) {
	r := newRig(t)
	for _, bad := range []string{
		"1s linkdown nosuch",
		"1s crash nosuch",
		"1s crash l", // a link is not a server
	} {
		s, err := Parse(bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.inj.Apply(s); err == nil {
			t.Errorf("Apply(%q) accepted", bad)
		}
	}
}

func TestInjectorFiresAtScheduledTimes(t *testing.T) {
	r := newRig(t)
	s, err := Parse("10ms linkdown l; 30ms linkup l; 50ms crash server; 70ms restart server; " +
		"90ms loss l 0.25; 110ms mediaerr server 0 64 1s")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.inj.Apply(s); err != nil {
		t.Fatal(err)
	}
	type check struct {
		at   sim.Duration
		want func() bool
		desc string
	}
	checks := []check{
		{20 * sim.Millisecond, func() bool { return r.link.Down(ethernet.DirBoth) }, "link down at 20ms"},
		{40 * sim.Millisecond, func() bool { return !r.link.Down(ethernet.DirBoth) }, "link up at 40ms"},
		{60 * sim.Millisecond, func() bool { return r.srv.Crashed() }, "server crashed at 60ms"},
		{80 * sim.Millisecond, func() bool { return !r.srv.Crashed() }, "server restarted at 80ms"},
	}
	for _, c := range checks {
		c := c
		r.k.After(c.at, func() {
			if !c.want() {
				t.Errorf("%s: state wrong", c.desc)
			}
		})
	}
	r.k.Run()
	if got := r.inj.Injected.Value(); got != 6 {
		t.Fatalf("Injected = %d, want 6", got)
	}
	if v := r.reg.Snapshot().CounterValue("faults.injected"); v != 6 {
		t.Fatalf("faults.injected metric = %d, want 6", v)
	}
}

func TestScheduleStringIsStable(t *testing.T) {
	// The rendered grammar is part of the experiment record; keep it stable.
	s, err := Parse("0s linkdown l tx;  1s   loss l 0.05 ;2s mediaerr server 10 20 250ms")
	if err != nil {
		t.Fatal(err)
	}
	want := "0s linkdown l tx; 1s loss l 0.05; 2s mediaerr server 10 20 250ms"
	if got := s.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if !strings.Contains(s.String(), "mediaerr server 10 20 250ms") {
		t.Fatal("mediaerr args lost")
	}
}

// FuzzParse checks the schedule grammar on arbitrary input: garbage must
// come back as an error, not a panic, and an accepted schedule must
// survive its own rendering: Parse(s.String()) == s. Seed corpus:
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil {
			return
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q) rendered as %q, which does not parse: %v", in, s, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("Parse(%q) = %#v, but its rendering %q parses as %#v", in, s, s, again)
		}
	})
}
