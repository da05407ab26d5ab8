// Command bmcast-experiments regenerates the paper's evaluation tables
// and figures (§5) from the simulation models.
//
// Usage:
//
//	bmcast-experiments [-fig N[,N...]] [-quick] [-markdown] [-seed S] [-parallel N]
//	                   [-trace-out FILE] [-metrics-out FILE]
//	                   [-fleet N] [-image-mb N] [-boot-mb N]
//
// Without -fig every figure runs in order. -quick uses reduced scale
// (smaller image, shorter measurement windows) for fast smoke runs.
//
// -trace-out enables structured tracing in the fleet cell and writes its
// Chrome trace-event JSON; -metrics-out writes the traced cell's metrics
// snapshot. Feed both to bmcast-obs for critical-path attribution.
// Traced fleet runs wait for bare metal on every instance, so pair
// -trace-out with -fleet/-image-mb/-boot-mb to keep the cell small, e.g.
//
//	bmcast-experiments -fig fleet -fleet 16 -image-mb 32 -boot-mb 1 \
//	    -trace-out fleet.trace.json -metrics-out fleet.metrics.json
//
// Cells run concurrently on up to -parallel workers (default: all CPUs).
// Every cell derives its kernel seed from (-seed, cell id) alone and the
// tables are printed in registry order, so standard output is byte-identical
// for every -parallel setting; per-cell wall-clock timings go to stderr.
//
// -cpuprofile and -memprofile write pprof profiles of the sweep, so the
// simulator's hot paths can be measured without editing code.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

func main() {
	fig := flag.String("fig", "", "comma-separated figure ids (e.g. 4,7,13); empty = all")
	quick := flag.Bool("quick", false, "reduced-scale run")
	markdown := flag.Bool("markdown", false, "emit markdown tables")
	seed := flag.Int64("seed", 1, "simulation seed")
	list := flag.Bool("list", false, "list available experiments and exit")
	parallel := flag.Int("parallel", runtime.NumCPU(), "experiment cells run concurrently")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the sweep to `file`")
	traceOut := flag.String("trace-out", "", "enable tracing in the fleet cell and write its Chrome trace-event JSON to `file`")
	metricsOut := flag.String("metrics-out", "", "write the traced cell's metrics snapshot JSON to `file`")
	fleetN := flag.Int("fleet", 0, "override the fleet cell's instance count (0 = scale default)")
	imageMB := flag.Int64("image-mb", 0, "override the OS image size in MB (0 = scale default)")
	bootMB := flag.Int64("boot-mb", 0, "override the guest boot bytes in MB for the fleet cell (0 = calibrated profile)")
	shards := flag.Int("shards", 0, "give every node of the fleet and elasticity cells its own shard domain when N > 0 (0 = one domain; output is byte-identical at every N >= 1)")
	flag.Parse()

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-6s %s\n", r.ID, r.Desc)
		}
		return
	}

	opt := experiments.Default()
	if *quick {
		opt = experiments.Quick()
	}
	opt.Seed = *seed
	opt.EnableTrace = *traceOut != ""
	if *fleetN > 0 {
		opt.FleetInstances = *fleetN
	}
	if *imageMB > 0 {
		opt.ImageBytes = *imageMB << 20
	}
	if *bootMB > 0 {
		opt.BootBytes = *bootMB << 20
	}
	opt.Shards = *shards

	var runners []experiments.Runner
	if *fig == "" {
		runners = experiments.Registry()
	} else {
		for _, id := range strings.Split(*fig, ",") {
			id = strings.TrimSpace(id)
			if _, numeric := experiments.Lookup("fig" + id); numeric {
				id = "fig" + id
			}
			r, ok := experiments.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	results := experiments.RunAll(runners, opt, *parallel)
	failed := false
	for _, res := range results {
		for _, t := range res.Tables {
			if *markdown {
				fmt.Println(t.Markdown())
			} else {
				fmt.Println(t)
			}
		}
		if res.Err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "[%s FAILED integrity check: %v]\n", res.Runner.ID, res.Err)
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %.1fs wall clock]\n", res.Runner.ID, res.Wall.Seconds())
	}

	if *traceOut != "" || *metricsOut != "" {
		var traced *experiments.Result
		for i := range results {
			if results[i].Trace != nil {
				traced = &results[i]
			}
		}
		if traced == nil {
			fmt.Fprintln(os.Stderr, "trace-out: no cell produced a trace (only the fleet cell records one; add -fig fleet)")
			os.Exit(1)
		}
		if *traceOut != "" {
			writeOrDie(*traceOut, traced.Trace.WriteChromeTrace)
			fmt.Fprintf(os.Stderr, "[wrote %d spans and %d events to %s]\n",
				len(traced.Trace.Spans()), len(traced.Trace.Events()), *traceOut)
		}
		if *metricsOut != "" {
			writeOrDie(*metricsOut, traced.Snapshot.WriteJSON)
			fmt.Fprintf(os.Stderr, "[wrote %d metric samples to %s]\n", len(traced.Snapshot.Samples), *metricsOut)
		}
	}
	if failed {
		os.Exit(1)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeOrDie streams write into a freshly created file, exiting on error.
func writeOrDie(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		os.Exit(1)
	}
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		os.Exit(1)
	}
	f.Close()
}
