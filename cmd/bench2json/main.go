// Command bench2json converts `go test -bench` output on stdin into a
// machine-readable JSON document, the format of the repo's tracked
// benchmark baseline (BENCH_results.json).
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/bench2json -out BENCH_results.json
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/bench2json -compare BENCH_results.json
//
// Every metric pair the benchmark framework prints — ns/op, B/op,
// allocs/op, and custom b.ReportMetric units like sim-s/ready — lands in
// the benchmark's metrics map verbatim, so new metrics never require a
// parser change. Input lines are echoed to stderr, so the harness stays
// readable when run by hand or in CI logs.
//
// With -compare the parsed results are checked against a baseline document:
// a benchmark regresses when its ns/op grows by more than 20% (wall-clock
// headroom for machine noise) or its allocs/op grows beyond a 0.001%
// jitter allowance (allocation counts are near-deterministic; see
// allocsSlack for why "near"), and a baseline row missing from the run
// regresses too: a gate that matches no rows gates nothing, so a
// deliberate removal goes through `make bench-rebase`. Regressions
// are listed on stderr and the exit status is non-zero, which is how
// `make bench` and the bench-compare CI job gate perf changes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Doc is the whole baseline document.
type Doc struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Package    string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// nsOpSlack is how much ns/op may grow before it counts as a regression.
const nsOpSlack = 1.20

// allocsSlack is how much allocs/op may grow before it counts as a
// regression. Allocation counts are effectively deterministic, so the
// tolerance is nearly zero — but only nearly: the single-iteration macro
// cells (fleet, elasticity) count millions of allocations in one shot and
// pick up O(10) background-runtime allocations (GC bookkeeping, pool
// victim refills) that vary with wall-clock GC timing. 0.001% forgives
// that jitter while still flagging one extra allocation per instance in a
// 256-instance fleet cell; for micro benchmarks averaged over millions of
// iterations it is indistinguishable from zero tolerance.
const allocsSlack = 1.00001

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	compare := flag.String("compare", "", "baseline JSON; exit non-zero on >20% ns/op or >0.001% allocs/op regression")
	flag.Parse()

	doc := Doc{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "bench2json: read: %v\n", err)
		os.Exit(1)
	}
	doc.Benchmarks = Aggregate(doc.Benchmarks)

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench2json: encode: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench2json: write: %v\n", err)
		os.Exit(1)
	}

	if *compare != "" {
		blob, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench2json: compare: %v\n", err)
			os.Exit(1)
		}
		var base Doc
		if err := json.Unmarshal(blob, &base); err != nil {
			fmt.Fprintf(os.Stderr, "bench2json: compare: parse %s: %v\n", *compare, err)
			os.Exit(1)
		}
		regressions, notes := Compare(base, doc)
		for _, n := range notes {
			fmt.Fprintf(os.Stderr, "bench2json: %s\n", n)
		}
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "bench2json: REGRESSION %s\n", r)
			}
			fmt.Fprintf(os.Stderr, "bench2json: %d regression(s) against %s\n", len(regressions), *compare)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench2json: no regressions against %s\n", *compare)
	}
}

// dupSuffix matches the #NN counter the testing package appends to
// repeated sub-benchmark names (b.Run called twice with the same name —
// e.g. BenchmarkRegistrySweep/parallel-1 and parallel-1#01 on a machine
// where NumCPU is 1).
var dupSuffix = regexp.MustCompile(`#\d+`)

// Aggregate collapses result rows that describe the same benchmark into
// one row per canonical name: the testing package's #NN duplicate
// suffixes are stripped and iterations are summed. ns/op keeps the
// minimum across merged rows — scheduler steal and host noise only ever
// add wall time, so the min of -count=N repeats estimates the true cost
// and keeps the -compare gate stable on noisy machines — while every
// other metric is averaged. Without the merge, duplicate names reach
// the baseline document, and -compare — which matches rows by name —
// silently checks against whichever duplicate came last.
func Aggregate(in []Benchmark) []Benchmark {
	out := make([]Benchmark, 0, len(in))
	index := make(map[string]int, len(in))    // canonical name -> index in out
	counts := make(map[string]map[string]int) // canonical name -> metric -> rows merged
	for _, b := range in {
		name := dupSuffix.ReplaceAllString(b.Name, "")
		i, ok := index[name]
		if !ok {
			index[name] = len(out)
			counts[name] = make(map[string]int, len(b.Metrics))
			for m := range b.Metrics {
				counts[name][m] = 1
			}
			b.Name = name
			out = append(out, b)
			continue
		}
		out[i].Iterations += b.Iterations
		for m, v := range b.Metrics {
			if m == "ns/op" {
				if cur, seen := out[i].Metrics[m]; !seen || v < cur {
					out[i].Metrics[m] = v
				}
				counts[name][m]++
				continue
			}
			n := counts[name][m]
			// Running mean; metrics missing from earlier rows start fresh.
			out[i].Metrics[m] = (out[i].Metrics[m]*float64(n) + v) / float64(n+1)
			counts[name][m] = n + 1
		}
	}
	return out
}

// Compare checks every benchmark in cur against its baseline entry. It
// returns regression descriptions (ns/op growth beyond nsOpSlack, any
// allocs/op growth, or a baseline entry missing from cur) and
// informational notes (benchmarks without a baseline counterpart).
func Compare(base, cur Doc) (regressions, notes []string) {
	old := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		old[b.Name] = b
	}
	seen := make(map[string]bool, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		seen[b.Name] = true
		o, ok := old[b.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: new benchmark, no baseline", b.Name))
			continue
		}
		if on, cn := o.Metrics["ns/op"], b.Metrics["ns/op"]; on > 0 && cn > on*nsOpSlack {
			regressions = append(regressions,
				fmt.Sprintf("%s: ns/op %.0f -> %.0f (%+.1f%%, limit +%.0f%%)",
					b.Name, on, cn, (cn/on-1)*100, (nsOpSlack-1)*100))
		}
		oa, hadAllocs := o.Metrics["allocs/op"]
		if ca := b.Metrics["allocs/op"]; hadAllocs && ca > oa*allocsSlack {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/op %.0f -> %.0f (over the %.3f%% jitter allowance)",
					b.Name, oa, ca, (allocsSlack-1)*100))
		}
	}
	for _, o := range base.Benchmarks {
		if !seen[o.Name] {
			regressions = append(regressions,
				fmt.Sprintf("%s: in baseline but not in this run (remove it with make bench-rebase)", o.Name))
		}
	}
	return regressions, notes
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   1234567   63.45 ns/op   48 B/op   1 allocs/op
//
// where any number of value/unit metric pairs may follow the iteration
// count.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		// The name is kept verbatim, including any -N GOMAXPROCS suffix:
		// stripping it cannot be done reliably (sub-benchmark names like
		// parallel-1 end in a dash-number too), and it is real context.
		Name:       fields[0],
		Iterations: iters,
		Metrics:    make(map[string]float64, (len(fields)-2)/2),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
