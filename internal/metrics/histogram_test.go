package metrics

import (
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
)

// refPercentile is the flat reference of Histogram.Percentile: sort a
// copy of every sample and take the nearest rank.
func refPercentile(samples []sim.Duration, p float64) sim.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// FuzzHistogram checks Histogram against a flat slice of samples. The
// input is a sequence of 3-byte operations: an opcode, a value byte and
// a parameter byte. Opcodes observe one value many times (long equal
// runs), observe a short descending stretch of distinct values, query,
// or Reset; a query compares Count, Mean, Min, Max and Percentile at
// fixed and input-chosen ranks with the reference.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{0, 5, 255, 2, 0, 0, 0, 5, 10, 2, 1, 50})
	f.Add([]byte{1, 200, 15, 2, 0, 99, 0, 3, 7, 1, 3, 4, 2, 33, 0, 3, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 128, 0, 0, 127, 0, 0, 128, 40, 2, 100, 100, 1, 129, 9, 0, 129, 200, 2, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Histogram
		var ref []sim.Duration
		var sum int64
		for ; len(data) >= 3; data = data[3:] {
			v := sim.Duration(int8(data[1])) * sim.Microsecond
			switch data[0] % 4 {
			case 0:
				for i := 0; i <= int(data[2]); i++ {
					h.Observe(v)
					ref = append(ref, v)
					sum += int64(v)
				}
			case 1:
				for i := 0; i <= int(data[2]%16); i++ {
					h.Observe(v - sim.Duration(i))
					ref = append(ref, v-sim.Duration(i))
					sum += int64(v) - int64(i)
				}
			case 2:
				var mean, lo, hi sim.Duration
				if n := int64(len(ref)); n > 0 {
					mean = sim.Duration(sum / n)
					lo, hi = slices.Min(ref), slices.Max(ref)
				}
				if h.Count() != len(ref) || h.Mean() != mean || h.Min() != lo || h.Max() != hi {
					t.Fatalf("Count/Mean/Min/Max = %d/%v/%v/%v, reference %d/%v/%v/%v",
						h.Count(), h.Mean(), h.Min(), h.Max(), len(ref), mean, lo, hi)
				}
				for _, p := range []float64{0, 1, 50, 99, 100, float64(data[1]) / 2.55, float64(data[2])} {
					if got, want := h.Percentile(p), refPercentile(ref, p); got != want {
						t.Fatalf("Percentile(%v) = %v, reference %v (%d samples)", p, got, want, len(ref))
					}
				}
			case 3:
				h.Reset()
				ref, sum = ref[:0], 0
			}
		}
	})
}

// TestHistogramEqualRunsConstantMemory bounds the memory of a million
// equal observations, the shape of a per-exit-reason cost histogram:
// one run, one allocation, whatever the count — and the queries between
// them allocate nothing.
func TestHistogramEqualRunsConstantMemory(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1_000_000; i++ {
			h.Observe(7 * sim.Microsecond)
			if i%100_000 == 0 && h.Percentile(99) != 7*sim.Microsecond {
				t.Fatal("p99 of equal samples moved")
			}
		}
	})
	if allocs > 1 || cap(h.runs) > 1 {
		t.Fatalf("1M equal observations: %v allocations, %d runs of capacity", allocs, cap(h.runs))
	}
	if h.Count() != 2_000_000 || h.Max() != 7*sim.Microsecond {
		t.Fatalf("Count = %d, Max = %v", h.Count(), h.Max())
	}
}

// TestHistogramDistinctMemory bounds a histogram of all-distinct
// samples at 16 bytes per sample, plus append's growth slack.
func TestHistogramDistinctMemory(t *testing.T) {
	const n = 100_000
	var h Histogram
	for i := n; i > 0; i-- {
		h.Observe(sim.Duration(i))
	}
	if h.Percentile(50) != n/2 || len(h.runs) != n {
		t.Fatalf("p50 = %v over %d runs", h.Percentile(50), len(h.runs))
	}
	if size := cap(h.runs) * 16; size > n*16*5/4 {
		t.Fatalf("%d distinct samples hold %d bytes", n, size)
	}
}
