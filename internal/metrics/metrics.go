// Package metrics provides the measurement primitives used by the BMcast
// experiments: counters, latency histograms with percentile queries, and
// windowed time series for throughput-over-time figures.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
)

// Counter accumulates a monotonically increasing count.
type Counter struct {
	n int64
}

// Add increases the counter by delta.
func (c *Counter) Add(delta int64) { c.n += delta }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Histogram records duration samples and answers mean/percentile queries.
// Samples are kept exactly, as runs of equal values: a (value, count)
// pair per run, and Observe of a sample equal to the last run's value
// only bumps its count. The hot observers are run-shaped — the per-exit
// cpuvirt histogram records each exit reason's constant cost, every VM
// exit of a fleet run — so their memory follows the number of distinct
// stretches, not the run length; a histogram of all-distinct samples
// holds 16 bytes per sample.
//
// The first query after an Observe sorts the runs in place, merges runs
// of equal value and turns each count into a running total, so a burst
// of queries (the fleet tables ask for p50/p99/max per column) sorts
// once. Percentile then indexes the runs directly when no value repeats
// and binary-searches the running totals otherwise. The zero value is an
// empty histogram.
type Histogram struct {
	runs   []histRun
	n      int64 // samples
	sum    int64
	sorted bool // runs ascend with distinct values, each run's n a running total
}

// histRun is a run of n samples of value v; once the histogram is
// sorted, n is the number of samples at or below v.
type histRun struct {
	v sim.Duration
	n int64
}

// Observe records one sample.
func (h *Histogram) Observe(d sim.Duration) {
	if h.sorted {
		// Back from running totals to counts; the runs stay sorted, so
		// the next query's sort is cheap.
		for i := len(h.runs) - 1; i > 0; i-- {
			h.runs[i].n -= h.runs[i-1].n
		}
		h.sorted = false
	}
	if k := len(h.runs); k > 0 && h.runs[k-1].v == d {
		h.runs[k-1].n++
	} else {
		h.runs = append(h.runs, histRun{v: d, n: 1})
	}
	h.n++
	h.sum += int64(d)
}

// Count reports the number of samples.
func (h *Histogram) Count() int { return int(h.n) }

// Mean reports the arithmetic mean of the samples, or 0 with no samples.
func (h *Histogram) Mean() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return sim.Duration(h.sum / h.n)
}

// sort puts the runs in ascending order of value, merges runs of equal
// value and turns the counts into running totals, unless they are so
// already.
func (h *Histogram) sort() {
	if h.sorted {
		return
	}
	slices.SortFunc(h.runs, func(a, b histRun) int { return cmp.Compare(a.v, b.v) })
	k := 0
	for _, r := range h.runs {
		if k > 0 && h.runs[k-1].v == r.v {
			h.runs[k-1].n += r.n
			continue
		}
		h.runs[k] = r
		k++
	}
	h.runs = h.runs[:k]
	for i := 1; i < k; i++ {
		h.runs[i].n += h.runs[i-1].n
	}
	h.sorted = true
}

// Percentile reports the p-th percentile (0 < p <= 100) using
// nearest-rank. It returns 0 with no samples.
func (h *Histogram) Percentile(p float64) sim.Duration {
	if h.n == 0 {
		return 0
	}
	h.sort()
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	if int64(len(h.runs)) == h.n {
		return h.runs[rank-1].v // every run holds one sample
	}
	i, _ := slices.BinarySearchFunc(h.runs, rank, func(r histRun, rank int64) int { return cmp.Compare(r.n, rank) })
	return h.runs[i].v
}

// Min reports the smallest sample, or 0 with no samples.
func (h *Histogram) Min() sim.Duration {
	if h.n == 0 {
		return 0
	}
	h.sort()
	return h.runs[0].v
}

// Max reports the largest sample, or 0 with no samples.
func (h *Histogram) Max() sim.Duration { return h.Percentile(100) }

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.runs = h.runs[:0]
	h.n = 0
	h.sum = 0
	h.sorted = false
}

// Point is one sample of a time series.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only time series of (time, value) points, used for
// throughput/latency-over-time figures.
type Series struct {
	Name   string
	Points []Point
}

// Append adds a point. Points must be appended in nondecreasing time order.
func (s *Series) Append(t sim.Time, v float64) {
	if n := len(s.Points); n > 0 && t < s.Points[n-1].T {
		panic(fmt.Sprintf("metrics: series %q time went backwards", s.Name))
	}
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Mean reports the average of all point values, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// MeanBetween reports the average of point values with from <= T < to.
func (s *Series) MeanBetween(from, to sim.Time) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Points {
		if p.T >= from && p.T < to {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Last reports the final point value, or 0 for an empty series.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].V
}

// Window accumulates per-interval counts and emits a throughput series
// (events per second per window). It is driven by Tick calls from the
// simulation.
type Window struct {
	Series   Series
	interval sim.Duration
	start    sim.Time
	count    float64
}

// NewWindow returns a windowed throughput accumulator with the given
// aggregation interval.
func NewWindow(name string, interval sim.Duration) *Window {
	if interval <= 0 {
		panic("metrics: window interval must be positive")
	}
	return &Window{Series: Series{Name: name}, interval: interval}
}

// Add records n events at time t, flushing any completed windows first.
func (w *Window) Add(t sim.Time, n float64) {
	w.flushUpTo(t)
	w.count += n
}

// Flush emits every window that ends at or before t.
func (w *Window) Flush(t sim.Time) { w.flushUpTo(t) }

func (w *Window) flushUpTo(t sim.Time) {
	for t >= w.start.Add(w.interval) {
		rate := w.count / w.interval.Seconds()
		w.Series.Append(w.start.Add(w.interval), rate)
		w.count = 0
		w.start = w.start.Add(w.interval)
	}
}
