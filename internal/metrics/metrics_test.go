package metrics

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("Value after reset = %d", c.Value())
	}
}

func TestHistogramMean(t *testing.T) {
	var h Histogram
	for i := 1; i <= 4; i++ {
		h.Observe(sim.Duration(i) * sim.Second)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	want := sim.Duration(2500) * sim.Millisecond
	if h.Mean() != want {
		t.Fatalf("Mean = %v, want %v", h.Mean(), want)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 100; i >= 1; i-- { // reverse order: sorting must handle it
		h.Observe(sim.Duration(i) * sim.Millisecond)
	}
	if got := h.Percentile(50); got != 50*sim.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", got)
	}
	if got := h.Percentile(99); got != 99*sim.Millisecond {
		t.Fatalf("p99 = %v, want 99ms", got)
	}
	if got := h.Min(); got != sim.Millisecond {
		t.Fatalf("Min = %v, want 1ms", got)
	}
	if got := h.Max(); got != 100*sim.Millisecond {
		t.Fatalf("Max = %v, want 100ms", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram queries should return 0")
	}
}

func TestHistogramObserveAfterQuery(t *testing.T) {
	var h Histogram
	h.Observe(10 * sim.Millisecond)
	_ = h.Percentile(50)
	h.Observe(sim.Millisecond) // must re-sort
	if got := h.Min(); got != sim.Millisecond {
		t.Fatalf("Min after late observe = %v, want 1ms", got)
	}
}

func TestHistogramPercentileBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var h Histogram
		for _, v := range raw {
			h.Observe(sim.Duration(v))
		}
		if len(raw) == 0 {
			return h.Percentile(50) == 0
		}
		p50 := h.Percentile(50)
		return h.Min() <= p50 && p50 <= h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Append(sim.Time(sim.Second), 10)
	s.Append(sim.Time(2*sim.Second), 20)
	s.Append(sim.Time(3*sim.Second), 30)
	if s.Mean() != 20 {
		t.Fatalf("Mean = %v, want 20", s.Mean())
	}
	if s.Last() != 30 {
		t.Fatalf("Last = %v, want 30", s.Last())
	}
	got := s.MeanBetween(sim.Time(sim.Second), sim.Time(3*sim.Second))
	if got != 15 {
		t.Fatalf("MeanBetween = %v, want 15", got)
	}
}

func TestSeriesBackwardsTimePanics(t *testing.T) {
	var s Series
	s.Append(sim.Time(2*sim.Second), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards append did not panic")
		}
	}()
	s.Append(sim.Time(sim.Second), 2)
}

func TestWindowThroughput(t *testing.T) {
	w := NewWindow("tput", sim.Second)
	// 100 events in [0,1), 200 in [1,2).
	w.Add(sim.Time(500*sim.Millisecond), 100)
	w.Add(sim.Time(1500*sim.Millisecond), 200)
	w.Flush(sim.Time(2 * sim.Second))
	pts := w.Series.Points
	if len(pts) < 2 {
		t.Fatalf("got %d windows, want >= 2", len(pts))
	}
	if pts[0].V != 100 {
		t.Fatalf("window 0 rate = %v, want 100/s", pts[0].V)
	}
	if pts[1].V != 200 {
		t.Fatalf("window 1 rate = %v, want 200/s", pts[1].V)
	}
}

func TestWindowSkipsEmptyIntervals(t *testing.T) {
	w := NewWindow("tput", sim.Second)
	w.Add(sim.Time(100*sim.Millisecond), 10)
	w.Add(sim.Time(5*sim.Second+100*sim.Millisecond), 10)
	w.Flush(sim.Time(6 * sim.Second))
	// Windows 1..4 must exist with zero rate.
	pts := w.Series.Points
	if len(pts) != 6 {
		t.Fatalf("got %d windows, want 6", len(pts))
	}
	for i := 1; i <= 4; i++ {
		if pts[i].V != 0 {
			t.Fatalf("idle window %d rate = %v, want 0", i, pts[i].V)
		}
	}
}

// --- pinned Min/Max/Percentile edge cases --------------------------------

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(7 * sim.Millisecond)
	for _, p := range []float64{0.0001, 1, 50, 99, 100} {
		if got := h.Percentile(p); got != 7*sim.Millisecond {
			t.Fatalf("n=1 p%v = %v, want 7ms", p, got)
		}
	}
	if h.Min() != 7*sim.Millisecond || h.Max() != 7*sim.Millisecond {
		t.Fatalf("n=1 min/max = %v/%v, want 7ms/7ms", h.Min(), h.Max())
	}
}

func TestHistogramTwoSamples(t *testing.T) {
	var h Histogram
	h.Observe(20 * sim.Millisecond)
	h.Observe(10 * sim.Millisecond)
	if h.Min() != 10*sim.Millisecond {
		t.Fatalf("n=2 Min = %v, want 10ms", h.Min())
	}
	if h.Max() != 20*sim.Millisecond {
		t.Fatalf("n=2 Max = %v, want 20ms", h.Max())
	}
	// Nearest-rank: p50 of two samples is exactly rank 1, p50+ε rank 2.
	if got := h.Percentile(50); got != 10*sim.Millisecond {
		t.Fatalf("n=2 p50 = %v, want 10ms", got)
	}
	if got := h.Percentile(50.1); got != 20*sim.Millisecond {
		t.Fatalf("n=2 p50.1 = %v, want 20ms", got)
	}
}

func TestHistogramPercentileExactRankBoundaries(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10; i++ {
		h.Observe(sim.Duration(i) * sim.Millisecond)
	}
	// With n=10, p = 10k% falls exactly on rank k (nearest-rank ceiling).
	for k := 1; k <= 10; k++ {
		want := sim.Duration(k) * sim.Millisecond
		if got := h.Percentile(float64(k) * 10); got != want {
			t.Fatalf("p%d = %v, want %v", k*10, got, want)
		}
	}
	// Just above a rank boundary moves to the next sample.
	if got := h.Percentile(10.01); got != 2*sim.Millisecond {
		t.Fatalf("p10.01 = %v, want 2ms", got)
	}
	// Min must be the true smallest sample, not a percentile artifact.
	if got := h.Min(); got != sim.Millisecond {
		t.Fatalf("Min = %v, want 1ms", got)
	}
}

func TestHistogramMinUnsortedDirect(t *testing.T) {
	var h Histogram
	h.Observe(5 * sim.Millisecond)
	h.Observe(3 * sim.Millisecond)
	h.Observe(9 * sim.Millisecond)
	// Min before any Percentile call sorts the runs itself.
	if got := h.Min(); got != 3*sim.Millisecond {
		t.Fatalf("unsorted Min = %v, want 3ms", got)
	}
}

// --- Window boundary and flush semantics ---------------------------------

func TestWindowBoundaryEvent(t *testing.T) {
	w := NewWindow("tput", sim.Second)
	w.Add(sim.Time(500*sim.Millisecond), 100)
	// An event landing exactly on the window boundary belongs to the new
	// window: the old one is flushed first.
	w.Add(sim.Time(sim.Second), 50)
	w.Flush(sim.Time(2 * sim.Second))
	pts := w.Series.Points
	if len(pts) != 2 {
		t.Fatalf("got %d windows, want 2", len(pts))
	}
	if pts[0].V != 100 {
		t.Fatalf("window 0 rate = %v, want 100/s", pts[0].V)
	}
	if pts[1].V != 50 {
		t.Fatalf("window 1 rate = %v, want 50/s (boundary event counts forward)", pts[1].V)
	}
	if pts[0].T != sim.Time(sim.Second) || pts[1].T != sim.Time(2*sim.Second) {
		t.Fatalf("window end times = %v, %v", pts[0].T, pts[1].T)
	}
}

func TestWindowMultiGapZeroPoints(t *testing.T) {
	w := NewWindow("tput", 100*sim.Millisecond)
	w.Add(sim.Time(50*sim.Millisecond), 1)
	w.Add(sim.Time(350*sim.Millisecond), 1) // two empty windows in between
	w.Flush(sim.Time(400 * sim.Millisecond))
	pts := w.Series.Points
	if len(pts) != 4 {
		t.Fatalf("got %d windows, want 4", len(pts))
	}
	wantRates := []float64{10, 0, 0, 10}
	for i, want := range wantRates {
		if pts[i].V != want {
			t.Fatalf("window %d rate = %v, want %v", i, pts[i].V, want)
		}
	}
}

func TestWindowFlushIdempotent(t *testing.T) {
	w := NewWindow("tput", sim.Second)
	w.Add(sim.Time(200*sim.Millisecond), 42)
	w.Flush(sim.Time(3 * sim.Second))
	n := len(w.Series.Points)
	w.Flush(sim.Time(3 * sim.Second)) // same instant: no new points
	if len(w.Series.Points) != n {
		t.Fatalf("repeated Flush added points: %d -> %d", n, len(w.Series.Points))
	}
	w.Flush(sim.Time(3*sim.Second) + sim.Time(500*sim.Millisecond)) // mid-window: still nothing
	if len(w.Series.Points) != n {
		t.Fatalf("mid-window Flush added points: %d -> %d", n, len(w.Series.Points))
	}
	w.Flush(sim.Time(4 * sim.Second)) // next boundary: exactly one zero point
	if len(w.Series.Points) != n+1 || w.Series.Points[n].V != 0 {
		t.Fatalf("boundary Flush: %d points, last %v", len(w.Series.Points), w.Series.Points[len(w.Series.Points)-1])
	}
}
