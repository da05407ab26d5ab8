// Command bmcast-bench is the repository's benchmark: five simulator
// workloads, each measured end to end on the host and attributed layer by
// layer. See README.md for the workloads, the metrics and their bounds.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash cmd/bmcast-bench/run.sh [-workload all|NAME[,NAME]] [-seed 1]
//	    [-repeats 3] [-seconds S] [-trace 0|1|DIR]
//
// Every workload execution runs in a fresh child process. Executions are
// interleaved across workloads (w1…w5, w1…w5, …) so slow host drift hits
// every workload alike; each workload runs at least -repeats times and,
// with -seconds, for about that many host seconds. One
// "workload metric value unit" line is printed per metric with the median
// and interquartile range over the executions, and the last line is a JSON
// object with the keys correct, attempted, failed and metrics. The exit
// status is 1 when any correctness check failed.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eDef is an end-to-end metric and how to read it from one execution. A
// run reports the median over its executions.
type e2eDef struct {
	metricDef
	of func(execution) float64 // nil: read from loadRuns.setups
}

// endToEnd are the metrics a user running the simulator sees, measured on
// untraced executions.
var endToEnd = []e2eDef{
	// host wall time of one execution, launch to exit, at the reference
	// host speed (speed.go)
	{metricDef{"wall_norm_s", "s"}, func(e execution) float64 { w, _ := e.norm(); return w }},
	// host user+system CPU of one execution (rusage), at the reference
	// host speed
	{metricDef{"cpu_norm_s", "s"}, func(e execution) float64 { _, c := e.norm(); return c }},
	// resident-set high-water mark of one execution
	{metricDef{"peak_rss_mb", "MB"}, func(e execution) float64 { return e.res.PeakRSSBytes / 1e6 }},
	// heap bytes allocated by one execution
	{metricDef{"alloc_mb", "MB"}, func(e execution) float64 { return e.res.AllocBytes / 1e6 }},
	// heap objects allocated by one execution, in millions
	{metricDef{"allocs_m", "M"}, func(e execution) float64 { return e.res.AllocObjects / 1e6 }},
	// launch until the first RunUntil, at the reference host speed, over
	// every untraced execution and the set-up-only launches
	// (loadRuns.setups)
	{metricDef{"setup_s", "s"}, nil},
}

// countDefs are the per-layer work counts read from the simulation.
var countDefs = []metricDef{
	{"sim.proc_switches", "count"}, {"sim.procs_spawned", "count"},
	{"ethernet.frames", "count"}, {"aoe.requests", "count"}, {"aoe.retransmit_ratio", "ratio"},
	{"vblade.requests", "count"}, {"vblade.cache_hit_rate", "ratio"}, {"vblade.coalesced_reads", "count"},
	{"mediator.guest_commands", "count"}, {"mediator.redirects", "count"}, {"mediator.polls", "count"},
	{"core.copied_mb", "MB"}, {"core.copy_conflicts", "count"}, {"core.bitmap_hit_ratio", "ratio"},
	{"disk.extents_end", "count"},
	{"cloud.submitted", "count"}, {"cloud.shed", "count"}, {"cloud.redeploys", "count"},
	{"cloud.quarantines", "count"}, {"cloud.queue_wait_p50", "sim_s"},
	{"faults.injected", "count"}, {"cpuvirt.exits", "count"},
}

// modelDefs are the simulated system's outputs.
var modelDefs = []metricDef{
	{"model.ready_p50", "sim_s"}, {"model.ready_tail", "sim_s"},
	{"model.baremetal_p50", "sim_s"}, {"model.baremetal_tail", "sim_s"},
	{"model.guest_io_mbps", "sim_MB/s"}, {"model.paper_err_pct", "%"}, {"model.fail_ratio", "ratio"},
}

// hostLayerDefs are the per-layer host-time metrics of a traced run.
var hostLayerDefs = func() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{l + ".cpu_share", "%"})
	}
	out = append(out,
		metricDef{"runtime.gc_cpu_s", "s"}, metricDef{"executor.cpu_per_wall", "ratio"},
		metricDef{"harness.setup_s", "s"}, metricDef{"harness.simulate_s", "s"},
		metricDef{"harness.verify_s", "s"}, metricDef{"harness.trace_overhead_pct", "%"})
	for _, p := range unitProbes {
		out = append(out, metricDef{p.name, "ns"})
	}
	return out
}()

// perLayer lists every per-layer metric in report order.
func perLayer() []metricDef {
	out := append([]metricDef(nil), countDefs...)
	out = append(out, modelDefs...)
	return append(out, hostLayerDefs...)
}

// childTimeout bounds one execution; a hung child fails instead of
// stalling the run.
const childTimeout = 150 * time.Second

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options configures one benchmark invocation.
type options struct {
	workloads []workload
	seed      int64
	seconds   float64
	repeats   int
	traceDir  string // empty: untraced
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bmcast-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "`all`, a workload name, or comma-separated names")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 0, "keep repeating each workload for about this many host seconds")
	repeats := fs.Int("repeats", 3, "minimum executions of each workload")
	traceArg := fs.String("trace", "0", "0: untraced; 1: traced, artifacts in .bench_build/trace; DIR: traced, artifacts in DIR")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, repeats: *repeats}
	if fs.NArg() > 0 || opt.repeats < 1 || opt.seconds < 0 {
		fmt.Fprintf(stderr, "bmcast-bench: bad arguments %q\n", args)
		return 2
	}
	var err error
	if opt.workloads, err = selectWorkloads(*names); err != nil {
		fmt.Fprintf(stderr, "bmcast-bench: %v\n", err)
		return 2
	}
	switch *traceArg {
	case "", "0":
	case "1":
		opt.traceDir = filepath.Join(".bench_build", "trace")
	default:
		opt.traceDir = *traceArg
	}
	if opt.traceDir != "" {
		if err := os.MkdirAll(opt.traceDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "bmcast-bench: %v\n", err)
			return 2
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bmcast-bench: %v\n", err)
		return 2
	}
	res, err := bench(opt, self)
	if err != nil {
		fmt.Fprintf(stderr, "bmcast-bench: %v\n", err)
		return 2
	}
	sums := res.summarize(opt.traceDir != "")
	if opt.traceDir != "" {
		if err := res.writeArtifacts(opt.traceDir, sums); err != nil {
			fmt.Fprintf(stderr, "bmcast-bench: %v\n", err)
			return 2
		}
	}
	ok := res.print(stdout, sums, opt.traceDir != "")
	if !ok {
		return 1
	}
	return 0
}

func selectWorkloads(spec string) ([]workload, error) {
	if spec == "all" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(spec, ",") {
		w, ok := lookupWorkload(strings.TrimSpace(name))
		if !ok {
			var known []string
			for _, w := range workloads {
				known = append(known, w.name)
			}
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(known, ", "))
		}
		out = append(out, w)
	}
	return out, nil
}

// execution is one child process's measurements.
type execution struct {
	traced  bool
	started float64 // host seconds since the benchmark started
	wall    float64 // launch to exit
	setup   float64 // launch to the ready marker
	cpu     float64 // user+system, rusage
	profile string
	res     childResult
	err     error
}

// norm is the execution's wall and CPU time at the reference host speed.
func (e execution) norm() (wall, cpu float64) { return normalize(e.wall, e.cpu, e.res.Speed) }

// launch runs one execution of workload in a child process. A set-up-only
// child exits as soon as its scenario is built.
func launch(self string, w workload, seed int64, profile string, setupOnly bool) execution {
	ex := execution{traced: profile != "", profile: profile}
	spec, err := json.Marshal(childSpec{Workload: w.name, Seed: seed, Profile: profile, SetupOnly: setupOnly})
	if err != nil {
		ex.err = err
		return ex
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self)
	// One P: the serial kernel runs one goroutine at a time, and with a
	// second P the runtime bounces every process switch between two OS
	// threads, which on a shared 2-vCPU host made elastic-storm executions
	// swing ±15% instead of ±3%. fleet32-sharded's second worker spins at
	// every barrier; with it, the median wall time of ten runs moved 29%
	// between two passes on that host.
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		ex.err = err
		return ex
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		ex.err = err
		return ex
	}
	br := bufio.NewReader(out)
	first, _ := br.ReadString('\n')
	ex.setup = time.Since(start).Seconds()
	rest, readErr := io.ReadAll(br)
	waitErr := cmd.Wait()
	ex.wall = time.Since(start).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		ex.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	switch {
	case waitErr != nil:
		ex.err = fmt.Errorf("%s execution: %w", w.name, waitErr)
	case readErr != nil:
		ex.err = fmt.Errorf("%s execution: %w", w.name, readErr)
	case strings.TrimSpace(first) != readyMarker:
		ex.err = fmt.Errorf("%s execution: no set-up marker (got %q)", w.name, first)
	case setupOnly:
	default:
		if err := json.Unmarshal(rest, &ex.res); err != nil {
			ex.err = fmt.Errorf("%s execution: result: %w", w.name, err)
		}
	}
	return ex
}

// results is everything one invocation measured.
type results struct {
	start   time.Time
	seed    int64
	units   map[string]float64
	byLoad  []*loadRuns
	elapsed float64
}

// loadRuns is one workload's executions.
type loadRuns struct {
	w     workload
	execs []execution
	// setups holds the set-up time of every untraced execution and of
	// setupsPerRound extra set-up-only launches per untraced round, at the
	// reference host speed.
	setups []float64
}

// setupsPerRound is how many set-up-only children each untraced round
// launches per workload. Set-up takes 1–3 ms, so these cost nothing, and
// they give the set-up median 9× the samples of the executions alone.
const setupsPerRound = 8

// bench interleaves executions across workloads: round after round of
// one execution each, until every workload has run opt.repeats times and
// the next round would overrun the time budget. A traced invocation
// first times the unit-cost probes, then alternates traced and untraced
// rounds so the tracing overhead can be measured.
func bench(opt options, self string) (*results, error) {
	res := &results{start: time.Now(), seed: opt.seed}
	if opt.traceDir != "" {
		units, err := unitCosts(activeScale.UnitCostBatches)
		if err != nil {
			return nil, err
		}
		res.units = units
	}
	for _, w := range opt.workloads {
		res.byLoad = append(res.byLoad, &loadRuns{w: w})
	}
	minRounds := opt.repeats
	if opt.traceDir != "" && minRounds < 2 {
		minRounds = 2
	}
	budget := opt.seconds * float64(len(opt.workloads))
	var lastRound float64
	for round := 0; round < minRounds || time.Since(res.start).Seconds()+lastRound <= budget; round++ {
		roundStart := time.Now()
		for _, lr := range res.byLoad {
			profile := ""
			if opt.traceDir != "" && round%2 == 0 {
				profile = filepath.Join(opt.traceDir, fmt.Sprintf("cpu-%s-%d.pprof", lr.w.name, round))
			}
			started := time.Since(res.start).Seconds()
			ex := launch(self, lr.w, opt.seed, profile, false)
			ex.started = started
			lr.execs = append(lr.execs, ex)
			if ex.err != nil || ex.traced {
				continue
			}
			// Set-up times are scaled by the host speed the execution
			// just measured: the set-up-only children run right after it
			// and are too short to measure it themselves.
			speed := speedOf(ex.res.Speed)
			lr.setups = append(lr.setups, ex.setup*speed)
			for i := 0; i < setupsPerRound; i++ {
				if su := launch(self, lr.w, opt.seed, "", true); su.err != nil {
					lr.execs = append(lr.execs, su)
				} else {
					lr.setups = append(lr.setups, su.setup*speed)
				}
			}
		}
		lastRound = time.Since(roundStart).Seconds()
	}
	res.elapsed = time.Since(res.start).Seconds()
	return res, nil
}

// stat is a metric over a run's executions: the median and the quartiles.
type stat struct {
	median, q1, q3 float64
	n              int
}

func statOf(vals []float64) stat {
	s := sorted(vals)
	q1, q3 := quartiles(s)
	return stat{median: median(s), q1: q1, q3: q3, n: len(s)}
}

// summary is one workload's aggregated result.
type summary struct {
	name      string
	e2e       map[string]stat
	speed     stat // host speed over the untraced executions
	layer     map[string]float64
	ref       outcome // the first successful execution's outcome
	attempted int
	failed    int
	problems  []string
}

// summarize aggregates every workload's executions.
func (res *results) summarize(traced bool) []summary {
	out := make([]summary, len(res.byLoad))
	for i, lr := range res.byLoad {
		out[i] = lr.summarize(res.units, traced)
	}
	return out
}

func (lr *loadRuns) summarize(units map[string]float64, traced bool) summary {
	s := summary{name: lr.w.name, e2e: map[string]stat{}, layer: map[string]float64{}}
	var plain, withTrace []execution
	var refSet bool
	var refKey any
	for i, ex := range lr.execs {
		if ex.err != nil {
			s.attempted++
			s.failed++
			s.problems = append(s.problems, ex.err.Error())
			continue
		}
		o := ex.res.Outcome
		s.attempted += o.Ops
		s.failed += o.Failed
		key := struct {
			Ops, Failed int
			Model       map[string]float64
			Counts      map[string]float64
			Fingerprint string
		}{o.Ops, o.Failed, o.Model, o.Counts, o.Fingerprint}
		if !refSet {
			s.ref, refKey, refSet = o, key, true
			s.problems = append(s.problems, o.Problems...)
		} else if !reflect.DeepEqual(key, refKey) {
			s.failed++
			s.problems = append(s.problems, fmt.Sprintf("execution %d: simulated outputs differ from execution 1 under the same seed", i+1))
		}
		if ex.traced {
			withTrace = append(withTrace, ex)
		} else {
			plain = append(plain, ex)
		}
	}
	of := func(es []execution, f func(execution) float64) []float64 {
		out := make([]float64, len(es))
		for i, ex := range es {
			out[i] = f(ex)
		}
		return out
	}
	for _, m := range endToEnd {
		vals := lr.setups
		if m.of != nil {
			vals = of(plain, m.of)
		}
		s.e2e[m.name] = statOf(vals)
	}
	s.speed = statOf(of(plain, func(e execution) float64 { return speedOf(e.res.Speed) }))
	if !traced {
		return s
	}

	for k, v := range s.ref.Counts {
		s.layer[k] = v
	}
	for k, v := range s.ref.Model {
		s.layer[k] = v
	}
	totals := map[string]float64{}
	for _, ex := range withTrace {
		if err := layerSamples(ex.profile, totals); err != nil {
			s.failed++
			s.problems = append(s.problems, err.Error())
		}
	}
	var all, shares float64
	for _, l := range cpuLayers {
		all += totals[l]
	}
	for _, l := range cpuLayers {
		if all > 0 {
			s.layer[l+".cpu_share"] = 100 * totals[l] / all
		}
		shares += s.layer[l+".cpu_share"]
	}
	if math.Abs(shares-100) > 1 {
		s.failed++
		s.problems = append(s.problems, fmt.Sprintf("cpu_share values sum to %.2f%%, want 100%% ± 1", shares))
	}
	med := func(es []execution, f func(execution) float64) float64 { return statOf(of(es, f)).median }
	spanSum := func(cat string) func(execution) float64 {
		return func(e execution) float64 {
			var t float64
			for _, sp := range e.res.Spans {
				if sp.Cat == cat {
					t += sp.Dur
				}
			}
			return t
		}
	}
	s.layer["runtime.gc_cpu_s"] = med(plain, func(e execution) float64 { return e.res.GCCPU })
	s.layer["executor.cpu_per_wall"] = med(plain, func(e execution) float64 { return e.res.CPUPerWall })
	s.layer["harness.setup_s"] = med(withTrace, spanSum("setup"))
	s.layer["harness.simulate_s"] = med(withTrace, spanSum("simulate"))
	s.layer["harness.verify_s"] = med(withTrace, spanSum("verify"))
	// Traced executions run no speed probe, so both sides are compared as
	// measured, the untraced ones without their probe bursts.
	untraced := med(plain, func(e execution) float64 {
		cpu := e.cpu
		for _, d := range e.res.Speed {
			cpu -= d
		}
		return cpu
	})
	if untraced > 0 {
		s.layer["harness.trace_overhead_pct"] = 100 * (med(withTrace, func(e execution) float64 { return e.cpu })/untraced - 1)
	}
	for k, v := range units {
		s.layer[k] = v
	}
	return s
}

// print writes the report lines and the final JSON line, and reports
// whether every check passed.
func (res *results) print(w io.Writer, sums []summary, traced bool) bool {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# bmcast-bench seed=%d %s, %.1f s\n", res.seed, mode, res.elapsed)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Metrics: map[string]jsonMetric{}}
	key := func(s summary, name string) string {
		if len(sums) == 1 {
			return name
		}
		return s.name + "." + name
	}
	for _, s := range sums {
		for _, m := range endToEnd {
			st := s.e2e[m.name]
			fmt.Fprintf(w, "%-16s %-28s %14.6f %-8s median of %d, iqr %.6f\n", s.name, m.name, st.median, m.unit, st.n, st.q3-st.q1)
			if !traced {
				out.Metrics[key(s, m.name)] = jsonMetric{finite(st.median), m.unit}
			}
		}
		fmt.Fprintf(w, "%-16s %-28s %14.6f %-8s median of %d, iqr %.6f\n", s.name, "host_speed", s.speed.median, "ratio", s.speed.n, s.speed.q3-s.speed.q1)
		for _, m := range modelDefs {
			fmt.Fprintf(w, "%-16s %-28s %14.6f %-8s %s\n", s.name, m.name, s.ref.Model[m.name], m.unit, s.ref.Tails[m.name])
		}
		if sim := s.ref.SimSeconds; sim > 0 {
			if cpu := s.e2e["cpu_norm_s"].median; cpu > 0 {
				fmt.Fprintf(w, "%-16s %-28s %14.6f %-8s\n", s.name, "sim_s_per_cpu_s", sim/cpu, "sim_s/s")
			}
		}
		fmt.Fprintf(w, "%-16s %-28s %14s\n", s.name, "fingerprint", s.ref.Fingerprint)
		if traced {
			for _, m := range perLayer() {
				v := finite(s.layer[m.name])
				out.Metrics[key(s, m.name)] = jsonMetric{v, m.unit}
				if !strings.HasPrefix(m.name, "model.") { // printed above
					fmt.Fprintf(w, "%-16s %-28s %14.6f %s\n", s.name, m.name, v, m.unit)
				}
			}
		}
		for _, p := range s.problems {
			fmt.Fprintf(w, "%-16s FAIL %s\n", s.name, p)
		}
		out.Attempted += s.attempted
		out.Failed += s.failed
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(w, "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}\n")
		return false
	}
	fmt.Fprintf(w, "%s\n", line)
	return out.Correct
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// writeArtifacts writes the traced run's harness spans as Chrome trace
// JSON and the per-layer CPU shares; the CPU profiles are already there.
func (res *results) writeArtifacts(dir string, sums []summary) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	tid := 0
	var shares strings.Builder
	for i, lr := range res.byLoad {
		for _, ex := range lr.execs {
			tid++
			for _, sp := range ex.res.Spans {
				events = append(events, event{
					Name: sp.Name, Cat: sp.Cat, Ph: "X",
					Ts: 1e6 * (ex.started + sp.Start), Dur: 1e6 * sp.Dur, Pid: 1, Tid: tid,
					Args: map[string]any{"workload": lr.w.name, "traced": ex.traced},
				})
			}
		}
		for _, l := range cpuLayers {
			fmt.Fprintf(&shares, "%s %s %.2f\n", lr.w.name, l, sums[i].layer[l+".cpu_share"])
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), data, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(shares.String()), 0o644)
}
