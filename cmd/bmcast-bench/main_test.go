package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/tenants"
)

// tinyScale shrinks every workload so a whole traced and untraced pass
// runs in a few seconds.
var tinyScale = func() scale {
	sc := benchScale
	sc.Fleet, sc.FleetImage, sc.FleetBoot = 4, 32<<20, 4<<20
	sc.DeployImage, sc.DeployBoot, sc.DeployIOs = 256<<20, 4<<20, 512
	sc.ElasticPool, sc.ElasticImage, sc.ElasticBoot = 4, 16<<20, 4<<20
	sc.ElasticProfile = tenants.Profile{
		Rate: 0.05, Duration: 150 * sim.Second, Hold: 10 * sim.Second, Deadline: 40 * sim.Second,
		PriorityWeights: [3]float64{1, 2, 1},
	}
	sc.ElasticStorm.At, sc.ElasticStorm.For = 20*sim.Second, 10*sim.Second
	sc.Figs = []string{"fig4"}
	sc.FigOpts = experiments.Quick()
	sc.FigOpts.ImageBytes = 256 << 20
	sc.UnitCostBatches = 1
	return sc
}()

// TestMain runs the tests at tinyScale. The benchmark re-executes its own
// binary for every workload execution; under go test that binary is the
// test binary, so a child lands here and runs its execution.
func TestMain(m *testing.M) {
	activeScale = tinyScale
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

type benchFile struct {
	Command    []string
	Paths      []string
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json, which the bounds
// live in, and the metrics the harness reports in step.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b := loadBenchFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, want)
	}
	var e2e []metricDef
	for _, m := range endToEnd {
		e2e = append(e2e, m.metricDef)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range defs {
			w = append(w, m.name+" "+m.unit)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("BENCHMARK.json %s:\n%v\nharness:\n%v", kind, g, w)
		}
	}
	check("end_to_end", b.EndToEnd, e2e)
	check("per_layer", b.PerLayer, perLayer())
}

type benchOutput struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runBench runs the benchmark's parent path over every workload and
// returns its text and its final JSON line.
func runBench(t *testing.T, args ...string) (string, benchOutput) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := parentMain(args, &stdout, &stderr)
	text := stdout.String()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var out benchOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result JSON: %v\n%s\n%s", err, text, stderr.String())
	}
	if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("exit %d, result %+v\n%s\n%s", code, out, text, stderr.String())
	}
	return text, out
}

// hasLine reports whether text has a "workload metric value unit" line.
func hasLine(text, workload, metric, unit string) bool {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == workload && f[1] == metric && f[3] == unit {
			return true
		}
	}
	return false
}

// TestEveryMetricPrintsWithItsUnit runs all workloads untraced and traced
// and checks that every metric BENCHMARK.json names is reported, on a
// text line and in the JSON, with its unit. Each workload runs twice per
// pass, so the pass also checks that same-seed executions in separate
// processes agree on every simulated output.
func TestEveryMetricPrintsWithItsUnit(t *testing.T) {
	b := loadBenchFile(t)
	text, out := runBench(t, "-repeats", "2")
	for _, w := range workloads {
		for _, m := range b.EndToEnd {
			if !hasLine(text, w.name, m.Name, m.Unit) {
				t.Errorf("untraced: no %s %s line in %s", w.name, m.Name, m.Unit)
			}
			if got := out.Metrics[w.name+"."+m.Name]; got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("untraced JSON %s.%s = %+v, want a positive value in %s", w.name, m.Name, got, m.Unit)
			}
		}
	}

	dir := t.TempDir()
	text, out = runBench(t, "-repeats", "2", "-trace", dir)
	for _, w := range workloads {
		for _, m := range b.PerLayer {
			if !hasLine(text, w.name, m.Name, m.Unit) {
				t.Errorf("traced: no %s %s line in %s", w.name, m.Name, m.Unit)
			}
			if got, ok := out.Metrics[w.name+"."+m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("traced JSON %s.%s = %+v, want unit %s", w.name, m.Name, got, m.Unit)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "cpu-"+w.name+"-0.pprof")); err != nil {
			t.Error(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans struct{ TraceEvents []map[string]any }
	if err := json.Unmarshal(data, &spans); err != nil || len(spans.TraceEvents) == 0 {
		t.Errorf("spans.json: %v, %d events", err, len(spans.TraceEvents))
	}
	if _, err := os.Stat(filepath.Join(dir, "layers.txt")); err != nil {
		t.Error(err)
	}
}

// TestSummaryFlagsNondeterminism checks the same-seed comparison the
// previous test relies on: executions whose simulated outputs differ fail.
func TestSummaryFlagsNondeterminism(t *testing.T) {
	ex := func(fp string) execution {
		o := newOutcome()
		o.Ops, o.Fingerprint = 1, fp
		return execution{res: childResult{Outcome: o}}
	}
	lr := &loadRuns{w: workloads[0], execs: []execution{ex("a"), ex("a")}}
	if s := lr.summarize(nil, false); s.failed != 0 {
		t.Errorf("identical executions: %d failed: %v", s.failed, s.problems)
	}
	lr.execs = append(lr.execs, ex("b"))
	if s := lr.summarize(nil, false); s.failed != 1 {
		t.Errorf("differing execution: %d failed, want 1", s.failed)
	}
}

// TestSeedChangesDeployIOPattern checks that -seed is an input: another
// seed gives deploy-rw another guest I/O pattern and other results.
func TestSeedChangesDeployIOPattern(t *testing.T) {
	if reflect.DeepEqual(deployIOs(1, tinyScale), deployIOs(2, tinyScale)) {
		t.Fatal("seeds 1 and 2 generate the same guest I/O pattern")
	}
	outcomeOf := func(seed int64) outcome {
		r := newRun(nil)
		runDeployRW(r, seed, tinyScale)
		if r.out.Failed != 0 {
			t.Fatalf("seed %d: %v", seed, r.out.Problems)
		}
		return r.out
	}
	a, b := outcomeOf(1), outcomeOf(2)
	if a.Fingerprint == b.Fingerprint {
		t.Error("seeds 1 and 2 give the same fingerprint")
	}
	if a.Model["model.guest_io_mbps"] == b.Model["model.guest_io_mbps"] {
		t.Error("seeds 1 and 2 give the same guest I/O throughput")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	s := make([]float64, 32)
	for i := range s {
		s[i] = float64(i)
	}
	if v, label := tail(s); v != 21 || label != "p68 n=32" {
		t.Errorf("tail of 32 = %v %q, want 21 \"p68 n=32\"", v, label)
	}
	if v, label := tail(s[:5]); v != 4 || label != "max n=5" {
		t.Errorf("tail of 5 = %v %q, want 4 \"max n=5\"", v, label)
	}
}

// TestNormalize checks the host-speed scaling: on a host running at half
// the reference speed every burst takes twice speedRef, and the time left
// after the bursts is halved.
func TestNormalize(t *testing.T) {
	slow := []float64{2 * speedRef, 1.9 * speedRef, 2.1 * speedRef}
	busy := 6 * speedRef
	w, c := normalize(1+busy, 0.5+busy, slow)
	if math.Abs(w-0.5) > 1e-12 || math.Abs(c-0.25) > 1e-12 {
		t.Errorf("normalize at half speed = %v, %v; want 0.5, 0.25", w, c)
	}
	if w, c := normalize(1, 0.5, nil); w != 1 || c != 0.5 {
		t.Errorf("normalize without samples = %v, %v; want 1, 0.5", w, c)
	}
	var b burst
	if d := b.timed(); d <= 0 {
		t.Errorf("burst took %v", d)
	}
}

func TestLayerAttribution(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "repro/internal/hw/disk.coalesce"}, "disk"},
		{[]string{"repro/internal/hw/ahci.(*HBA).execute"}, "hw"},
		{[]string{"repro/internal/sim.(*Queue[go.shape.struct { repro/internal/hw/disk.x }]).Pop"}, "sim"},
		{[]string{"runtime.chansend", "runtime.chansend1", "repro/internal/sim.(*Proc).transfer"}, "runtime.sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.mallocgc", "repro/internal/vblade.(*Server).serve"}, "vblade"},
		{[]string{"main.main"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestCellNumber(t *testing.T) {
	for cell, want := range map[string]float64{"55.358s": 55.358, "+11.2%": 11.2, "+2.0 ms": 2, "196": 196, "-0.5%": -0.5} {
		if got, ok := cellNumber(cell); !ok || got != want {
			t.Errorf("cellNumber(%q) = %v, %v; want %v", cell, got, ok, want)
		}
	}
}
