package main

import (
	"strings"
	"testing"
)

func bench(name string, metrics map[string]float64) Benchmark {
	return Benchmark{Name: name, Iterations: 1, Metrics: metrics}
}

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkFoo-8   1234   63.45 ns/op   48 B/op   1 allocs/op")
	if !ok || b.Name != "BenchmarkFoo-8" || b.Iterations != 1234 {
		t.Fatalf("parseLine = %+v, %v", b, ok)
	}
	if b.Metrics["ns/op"] != 63.45 || b.Metrics["allocs/op"] != 1 {
		t.Fatalf("metrics = %v", b.Metrics)
	}
	if _, ok := parseLine("Benchmark broken line"); ok {
		t.Fatal("malformed line parsed")
	}
}

func TestCompareCatchesRegressions(t *testing.T) {
	base := Doc{Benchmarks: []Benchmark{
		bench("BenchmarkA", map[string]float64{"ns/op": 100, "allocs/op": 10}),
		bench("BenchmarkB", map[string]float64{"ns/op": 100, "allocs/op": 10}),
		bench("BenchmarkGone", map[string]float64{"ns/op": 1}),
	}}
	cur := Doc{Benchmarks: []Benchmark{
		bench("BenchmarkA", map[string]float64{"ns/op": 121, "allocs/op": 10}), // >20% ns/op
		bench("BenchmarkB", map[string]float64{"ns/op": 90, "allocs/op": 11}),  // +1 alloc
		bench("BenchmarkNew", map[string]float64{"ns/op": 5}),
	}}
	regs, notes := Compare(base, cur)
	if len(regs) != 3 {
		t.Fatalf("regressions = %v, want 3", regs)
	}
	if !strings.Contains(regs[0], "BenchmarkA") || !strings.Contains(regs[0], "ns/op") {
		t.Fatalf("first regression = %q", regs[0])
	}
	if !strings.Contains(regs[1], "BenchmarkB") || !strings.Contains(regs[1], "allocs/op") {
		t.Fatalf("second regression = %q", regs[1])
	}
	if !strings.Contains(regs[2], "BenchmarkGone") || !strings.Contains(regs[2], "not in this run") {
		t.Fatalf("third regression = %q", regs[2])
	}
	if len(notes) != 1 { // BenchmarkNew has no baseline
		t.Fatalf("notes = %v, want 1", notes)
	}
}

func TestCompareMissingBaselineRowRegresses(t *testing.T) {
	// A run at GOMAXPROCS=2 names every row with a -2 suffix; against a
	// baseline recorded at GOMAXPROCS=1 no row matches, and that must
	// fail the gate rather than pass it with notes only.
	base := Doc{Benchmarks: []Benchmark{
		bench("BenchmarkA", map[string]float64{"ns/op": 100, "allocs/op": 10}),
		bench("BenchmarkB", map[string]float64{"ns/op": 100, "allocs/op": 10}),
	}}
	cur := Doc{Benchmarks: []Benchmark{
		bench("BenchmarkA-2", map[string]float64{"ns/op": 500, "allocs/op": 99}),
		bench("BenchmarkB-2", map[string]float64{"ns/op": 100, "allocs/op": 10}),
	}}
	regs, notes := Compare(base, cur)
	if len(regs) != 2 || !strings.Contains(regs[0], "BenchmarkA:") || !strings.Contains(regs[1], "BenchmarkB:") {
		t.Fatalf("regressions = %v, want BenchmarkA and BenchmarkB missing", regs)
	}
	if len(notes) != 2 {
		t.Fatalf("notes = %v, want the two unmatched -2 rows", notes)
	}
}

func TestCompareToleratesNoiseAndImprovement(t *testing.T) {
	base := Doc{Benchmarks: []Benchmark{
		bench("BenchmarkA", map[string]float64{"ns/op": 100, "allocs/op": 10}),
	}}
	cur := Doc{Benchmarks: []Benchmark{
		// +19% wall time is inside the slack; fewer allocs is an improvement.
		bench("BenchmarkA", map[string]float64{"ns/op": 119, "allocs/op": 8}),
	}}
	if regs, _ := Compare(base, cur); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestCompareAllocJitterAllowance(t *testing.T) {
	// Single-iteration macro cells pick up O(10) background-runtime
	// allocations that vary with GC timing; the 0.001% allowance forgives
	// that but still flags one extra allocation per fleet instance.
	base := Doc{Benchmarks: []Benchmark{
		bench("BenchmarkJitter", map[string]float64{"allocs/op": 5324665}),
		bench("BenchmarkReal", map[string]float64{"allocs/op": 3578423}),
	}}
	cur := Doc{Benchmarks: []Benchmark{
		bench("BenchmarkJitter", map[string]float64{"allocs/op": 5324671}), // +6 ≈ +0.0001%
		bench("BenchmarkReal", map[string]float64{"allocs/op": 3578679}),   // +256 ≈ +0.007%
	}}
	regs, _ := Compare(base, cur)
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkReal") {
		t.Fatalf("regressions = %v, want exactly BenchmarkReal", regs)
	}
}

func TestAggregateCollapsesDuplicateNames(t *testing.T) {
	in := []Benchmark{
		bench("BenchmarkRegistrySweep/parallel-1", map[string]float64{"ns/op": 100, "allocs/op": 10}),
		bench("BenchmarkRegistrySweep/parallel-1#01", map[string]float64{"ns/op": 300, "allocs/op": 10}),
		bench("BenchmarkOther", map[string]float64{"ns/op": 7}),
	}
	out := Aggregate(in)
	if len(out) != 2 {
		t.Fatalf("Aggregate left %d rows, want 2: %+v", len(out), out)
	}
	got := out[0]
	if got.Name != "BenchmarkRegistrySweep/parallel-1" {
		t.Fatalf("canonical name = %q", got.Name)
	}
	if got.Iterations != 2 {
		t.Fatalf("iterations = %d, want 2 (summed)", got.Iterations)
	}
	if got.Metrics["ns/op"] != 100 {
		t.Fatalf("ns/op = %v, want min 100", got.Metrics["ns/op"])
	}
	if got.Metrics["allocs/op"] != 10 {
		t.Fatalf("allocs/op = %v, want 10", got.Metrics["allocs/op"])
	}
	if out[1].Name != "BenchmarkOther" {
		t.Fatalf("row order not preserved: %+v", out)
	}
}

func TestAggregateHandlesPartialMetrics(t *testing.T) {
	in := []Benchmark{
		bench("BenchmarkA", map[string]float64{"ns/op": 100}),
		bench("BenchmarkA#01", map[string]float64{"ns/op": 200, "hit-rate": 0.5}),
		bench("BenchmarkA#02", map[string]float64{"ns/op": 300, "hit-rate": 0.7}),
	}
	out := Aggregate(in)
	if len(out) != 1 {
		t.Fatalf("Aggregate left %d rows, want 1", len(out))
	}
	if got := out[0].Metrics["ns/op"]; got != 100 {
		t.Fatalf("ns/op = %v, want min 100", got)
	}
	if got := out[0].Metrics["hit-rate"]; got != 0.6 {
		t.Fatalf("hit-rate = %v, want 0.6 (mean of the rows that report it)", got)
	}
}

func TestCompareHandlesMissingMetrics(t *testing.T) {
	// Macro benchmarks at -benchtime=1x may lack allocs/op (no -benchmem);
	// a missing metric on either side must not regress.
	base := Doc{Benchmarks: []Benchmark{
		bench("BenchmarkA", map[string]float64{"ns/op": 100}),
	}}
	cur := Doc{Benchmarks: []Benchmark{
		bench("BenchmarkA", map[string]float64{"ns/op": 100, "allocs/op": 50}),
	}}
	if regs, _ := Compare(base, cur); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}
