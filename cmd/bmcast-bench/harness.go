package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// span is one harness span: host time around a call into the simulator.
type span struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat"`   // setup, simulate or verify
	Start float64 `json:"start"` // host seconds since the process started
	Dur   float64 `json:"dur"`
}

// run records one workload execution: the harness spans and the outcome.
type run struct {
	t0      time.Time
	onReady func()
	spans   []span
	out     outcome

	readyAt    time.Time
	cpuAtReady float64
	// cpuPerWall is process CPU over wall time from the end of set-up to
	// the start of verification: 1 for a serial kernel, more when shard
	// workers run in parallel.
	cpuPerWall float64
}

func newRun(onReady func()) *run { return &run{t0: time.Now(), onReady: onReady} }

func (r *run) timed(name, cat string, fn func()) {
	start := time.Now()
	fn()
	r.spans = append(r.spans, span{Name: name, Cat: cat, Start: start.Sub(r.t0).Seconds(), Dur: time.Since(start).Seconds()})
}

// ready marks the end of set-up: the scenario is built and its first
// RunUntil comes next.
func (r *run) ready() {
	r.readyAt = time.Now()
	r.spans = append(r.spans, span{Name: "setup", Cat: "setup", Dur: r.readyAt.Sub(r.t0).Seconds()})
	r.cpuAtReady = processCPU()
	if r.onReady != nil {
		r.onReady()
	}
}

// simulate advances k one simulated minute per call, one span each, until
// done reports true, k runs out of events or the clock reaches horizon.
func (r *run) simulate(k *sim.Kernel, horizon sim.Time, done func() bool) {
	for !done() && k.Pending() > 0 && k.Now() < horizon {
		r.timed("simulate", "simulate", func() { k.RunUntil(k.Now().Add(sim.Minute)) })
	}
}

// simulateShards is simulate for a shard set: windows run until done
// reports true at a barrier or the set goes quiescent.
func (r *run) simulateShards(set *sim.ShardSet, done func() bool) {
	for !done() && set.Pending() > 0 {
		next := set.Now().Add(sim.Minute)
		r.timed("simulate", "simulate", func() { set.RunUntil(next, done) })
	}
}

// verify runs the workload's checks and result collection in a span.
func (r *run) verify(fn func()) {
	if wall := time.Since(r.readyAt).Seconds(); wall > 0 {
		r.cpuPerWall = (processCPU() - r.cpuAtReady) / wall
	}
	r.timed("verify", "verify", fn)
}

// processCPU is this process's user+system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// The parent starts each workload execution in a fresh child process — a
// re-exec of its own binary with childEnv set — so rusage, peak RSS and
// garbage-collector state belong to one execution.
const (
	childEnv = "BMCAST_BENCH_CHILD"
	// readyMarker is the line a child prints when its set-up is done.
	readyMarker = "ready"
)

// childSpec is the child's task, passed as JSON in childEnv.
type childSpec struct {
	Workload string
	Seed     int64
	Profile  string // CPU profile path; empty for an untraced child
	// SetupOnly makes the child exit once its set-up is done.
	SetupOnly bool
}

// childResult is the child's report, the last line of its stdout.
type childResult struct {
	Outcome    outcome
	Spans      []span
	CPUPerWall float64
	// AllocBytes and AllocObjects count heap allocations over the child's
	// lifetime; GCCPU is the garbage collector's CPU seconds.
	AllocBytes   float64
	AllocObjects float64
	GCCPU        float64
	// PeakRSSBytes is the child's resident-set high-water mark. It is read
	// from /proc rather than rusage: a child started with vfork inherits
	// the parent's high-water mark into its rusage at exec.
	PeakRSSBytes float64
	// Speed holds the durations of the host-speed probe bursts an untraced
	// execution ran (speed.go); a traced one runs none.
	Speed []float64
}

// childMain runs one execution of a workload and prints its result.
func childMain(spec string) int {
	var cs childSpec
	if err := json.Unmarshal([]byte(spec), &cs); err != nil {
		fmt.Fprintf(os.Stderr, "bmcast-bench: bad %s: %v\n", childEnv, err)
		return 2
	}
	w, ok := lookupWorkload(cs.Workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bmcast-bench: unknown workload %q\n", cs.Workload)
		return 2
	}
	var speed []float64
	r := newRun(func() {
		fmt.Println(readyMarker)
		if cs.SetupOnly {
			os.Exit(0)
		}
	})
	if cs.Profile != "" {
		f, err := os.Create(cs.Profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bmcast-bench: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bmcast-bench: %v\n", err)
			return 2
		}
		w.run(r, cs.Seed, activeScale)
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bmcast-bench: %v\n", err)
			return 2
		}
	} else {
		var sp *speedSampler
		if !cs.SetupOnly {
			sp = startSpeedSampler()
		}
		w.run(r, cs.Seed, activeScale)
		if sp != nil {
			speed = sp.finish()
		}
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	res := childResult{
		Outcome:      r.out,
		Spans:        r.spans,
		CPUPerWall:   r.cpuPerWall,
		AllocBytes:   float64(samples[0].Value.Uint64()),
		AllocObjects: float64(samples[1].Value.Uint64()),
		GCCPU:        samples[2].Value.Float64(),
		Speed:        speed,
	}
	var err error
	if res.PeakRSSBytes, err = peakRSS(); err != nil {
		fmt.Fprintf(os.Stderr, "bmcast-bench: %v\n", err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "bmcast-bench: %v\n", err)
		return 2
	}
	return 0
}

// peakRSS reads this process's resident-set high-water mark (VmHWM).
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/self/status: %q: %w", line, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}
