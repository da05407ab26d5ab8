package tenants

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/sim"
	"repro/internal/testbed"
)

func TestProfileParseRoundTrip(t *testing.T) {
	in := "rate=0.3,dur=3m0s,hold=20s,deadline=45s,burst=1m0s/10s/3,diurnal=2m0s/0.5,prio=1/2/1"
	pr, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Rate != 0.3 || pr.Duration != 3*sim.Minute || pr.Hold != 20*sim.Second ||
		pr.Deadline != 45*sim.Second || pr.BurstEvery != sim.Minute ||
		pr.BurstFor != 10*sim.Second || pr.BurstFactor != 3 ||
		pr.DiurnalPeriod != 2*sim.Minute || pr.DiurnalAmp != 0.5 ||
		pr.PriorityWeights != [3]float64{1, 2, 1} {
		t.Fatalf("parsed profile = %+v", pr)
	}
	if got := pr.String(); got != in {
		t.Fatalf("String = %q, want %q", got, in)
	}
	// A minimal profile omits the optional clauses.
	min, err := Parse("rate=1,dur=10s,hold=5s")
	if err != nil {
		t.Fatal(err)
	}
	if s := min.String(); strings.Contains(s, "burst") || strings.Contains(s, "prio") {
		t.Fatalf("minimal profile renders optional clauses: %q", s)
	}
	if _, err := Parse(min.String()); err != nil {
		t.Fatalf("minimal round trip: %v", err)
	}
}

func TestProfileParseErrors(t *testing.T) {
	for _, bad := range []string{
		"rate=abc",           // bad number
		"nope=1",             // unknown key
		"rate",               // not key=value
		"rate=-1",            // negative rate
		"dur=-5s",            // negative duration
		"burst=1s/1s",        // burst needs three fields
		"burst=1s/1s/2/junk", // and no more
		"rate=NaN",           // not a number
		"prio=1/Inf/1",       // not finite
		"diurnal=1s",         // diurnal needs two fields
		"diurnal=1s/1.5",     // amplitude out of range
		"prio=1/2",           // three weights required
		"prio=1/-1/1",        // negative weight
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestRateModulation(t *testing.T) {
	pr := Profile{
		Rate: 1, BurstEvery: 60 * sim.Second, BurstFor: 10 * sim.Second, BurstFactor: 3,
		DiurnalPeriod: 120 * sim.Second, DiurnalAmp: 0.5,
	}
	if !pr.bursting(5 * sim.Second) {
		t.Error("t=5s should be inside the burst window")
	}
	if pr.bursting(30 * sim.Second) {
		t.Error("t=30s should be outside the burst window")
	}
	if !pr.bursting(65 * sim.Second) {
		t.Error("burst window should recur every BurstEvery")
	}
	max := pr.maxRate()
	for _, tt := range []sim.Duration{0, 5 * sim.Second, 30 * sim.Second, 61 * sim.Second, 90 * sim.Second} {
		r := pr.rateAt(tt)
		if r < 0 || r > max {
			t.Errorf("rateAt(%v) = %g outside [0, %g]", tt, r, max)
		}
	}
	if pr.rateAt(30*sim.Second) >= pr.rateAt(5*sim.Second) {
		t.Error("burst window does not raise the rate")
	}
}

func TestPickPriorityWeights(t *testing.T) {
	g := &Generator{p: Profile{PriorityWeights: [3]float64{1, 2, 1}}}
	cases := []struct {
		u    float64
		want cloud.Priority
	}{
		{0.0, cloud.PriorityLow},
		{0.2, cloud.PriorityLow},
		{0.3, cloud.PriorityNormal},
		{0.7, cloud.PriorityNormal},
		{0.8, cloud.PriorityHigh},
		{0.99, cloud.PriorityHigh},
	}
	for _, c := range cases {
		if got := g.pickPriority(c.u); got != c.want {
			t.Errorf("pickPriority(%g) = %v, want %v", c.u, got, c.want)
		}
	}
	// All-zero weights: everything is normal priority.
	g0 := &Generator{}
	if got := g0.pickPriority(0.01); got != cloud.PriorityNormal {
		t.Errorf("unweighted pickPriority = %v, want normal", got)
	}
}

// runTraffic builds a small testbed + frontend + generator, runs the
// profile to drain, and returns the generator, frontend, and a signature
// of the arrival sequence (submission time + priority per request).
func runTraffic(t *testing.T, seed int64, profile Profile) (*Generator, *cloud.Frontend, string) {
	t.Helper()
	tcfg := testbed.DefaultConfig()
	tcfg.Seed = seed
	tcfg.ImageBytes = 64 << 20
	tcfg.DiskSectors = 1 << 20
	tb := testbed.New(tcfg)
	c := cloud.NewController(tb, tcfg, 4)
	c.BootProfile.TotalBytes = 8 << 20
	c.BootProfile.CPUTime = 2 * sim.Second
	c.VMMConfig.WriteInterval = 2 * sim.Millisecond
	for _, n := range tb.Nodes {
		n.M.Firmware.InitTime = 2 * sim.Second
	}
	f := cloud.NewFrontend(c, cloud.AdmissionConfig{QueueLimit: 16, TokenRate: 4, TokenBurst: 4})
	g := NewGenerator(tb.K, f, tb.Metrics, profile)
	g.Start()
	tb.K.RunUntil(sim.Time(2 * sim.Hour))
	if !g.stopped || g.active != 0 {
		t.Fatalf("traffic did not drain: stopped=%v active=%d", g.stopped, g.active)
	}
	var sig strings.Builder
	for _, r := range f.Requests() {
		fmt.Fprintf(&sig, "%d@%v:%v;", r.ID, r.SubmittedAt, r.Priority)
	}
	return g, f, sig.String()
}

// TestGeneratorDeterministicArrivals: the same seed and profile replay
// the identical arrival sequence, and every arrival is accounted for as
// completed, failed, or shed.
func TestGeneratorDeterministicArrivals(t *testing.T) {
	profile := Profile{
		Rate: 0.25, Duration: 60 * sim.Second, Hold: 5 * sim.Second,
		Deadline:   30 * sim.Second,
		BurstEvery: 30 * sim.Second, BurstFor: 8 * sim.Second, BurstFactor: 3,
		PriorityWeights: [3]float64{1, 2, 1},
	}
	g1, f1, sig1 := runTraffic(t, 11, profile)
	g2, _, sig2 := runTraffic(t, 11, profile)
	if sig1 != sig2 {
		t.Fatalf("same seed produced different arrivals:\n%s\n%s", sig1, sig2)
	}
	if g1.Generated.Value() == 0 {
		t.Fatal("no arrivals generated")
	}
	sum := g1.Completed.Value() + g1.Failed.Value() + g1.Shed.Value()
	if sum != g1.Generated.Value() {
		t.Fatalf("accounting: completed+failed+shed = %d, generated = %d", sum, g1.Generated.Value())
	}
	if g2.Generated.Value() != g1.Generated.Value() {
		t.Fatalf("generated differs across identical runs: %d vs %d",
			g1.Generated.Value(), g2.Generated.Value())
	}
	if int64(len(f1.Requests())) != g1.Generated.Value() {
		t.Fatalf("frontend saw %d requests, generator made %d", len(f1.Requests()), g1.Generated.Value())
	}
	// A different seed produces a different sequence (overwhelmingly).
	_, _, sig3 := runTraffic(t, 12, profile)
	if sig3 == sig1 {
		t.Fatal("different seeds produced identical arrival sequences")
	}
	// All machines end up back in the pool once traffic drains.
	if free := f1.Controller().FreeMachines(); free != 4 {
		t.Fatalf("free = %d after drain, want 4", free)
	}
}

// FuzzParse checks the tenant profile grammar on arbitrary input: garbage
// must come back as an error, not a panic, and an accepted profile must
// survive its own rendering: Parse(pr.String()) == pr. Seed corpus:
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		pr, err := Parse(in)
		if err != nil {
			return
		}
		again, err := Parse(pr.String())
		if err != nil {
			t.Fatalf("Parse(%q) rendered as %q, which does not parse: %v", in, pr, err)
		}
		if again != pr {
			t.Fatalf("Parse(%q) = %#v, but its rendering %q parses as %#v", in, pr, pr, again)
		}
	})
}
