package main

import "time"

// Host-speed normalisation. A shared host's other tenants slow every
// instruction the benchmark runs, in phases from seconds to minutes, so raw
// host times of whole 25 s runs spread 11–19% on a 2-vCPU host.
//
// An untraced child therefore times a fixed probe burst every speedEvery of
// host time, interleaved with the simulation on its one P. The burst's
// duration tracks how fast the host runs at that moment, and an execution's
// host times, less the bursts, are scaled by speedRef over the typical
// burst: they read as the times the execution would take on a host that
// runs the burst in exactly speedRef. README.md gives the spreads.
//
// The burst is a binary heap of fixed-size event records whose earliest
// record is rescheduled, over and over: the event queue's access pattern,
// with no allocation, so it neither triggers nor waits for the collector.
// It touches its data before timing, so the simulation's cache footprint
// does not leak in.
const (
	speedEvery = 20 * time.Millisecond
	// speedRef is one burst's duration at the reference speed, about the
	// median on the development host.
	speedRef = 250e-6
	// probeHeap and probeOps size the burst: a 16 KB heap, probeOps
	// reschedules.
	probeHeap = 1024
	probeOps  = 2500
)

// speedSampler times probe bursts in a goroutine of its own until stopped.
type speedSampler struct {
	stop, done chan struct{}
	samples    []float64 // burst durations, host seconds
}

func startSpeedSampler() *speedSampler {
	s := &speedSampler{stop: make(chan struct{}), done: make(chan struct{}), samples: make([]float64, 0, 4096)}
	go s.loop()
	return s
}

func (s *speedSampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(speedEvery)
	defer tick.Stop()
	var b burst
	for {
		select {
		case <-s.stop:
			// One final burst, so even an execution shorter than
			// speedEvery has a sample.
			s.samples = append(s.samples, b.timed())
			return
		case <-tick.C:
			s.samples = append(s.samples, b.timed())
		}
	}
}

// finish stops the sampler, waits for its goroutine to exit and returns the
// burst durations.
func (s *speedSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// burst is the probe's state: the heap persists across bursts so every
// burst starts from a full heap.
type burst struct {
	heap [probeHeap]struct{ at, seq uint64 }
	rng  uint64
	seq  uint64
	sink uint64
}

func (b *burst) less(i, j int) bool {
	x, y := b.heap[i], b.heap[j]
	return x.at < y.at || (x.at == y.at && x.seq < y.seq)
}

func (b *burst) next() uint64 {
	b.rng ^= b.rng << 13
	b.rng ^= b.rng >> 7
	b.rng ^= b.rng << 17
	return b.rng
}

// timed runs one burst and returns its host duration in seconds.
func (b *burst) timed() float64 {
	if b.rng == 0 {
		b.rng = 88172645463325252
		for i := range b.heap {
			b.heap[i].at, b.heap[i].seq = b.next()%1e6, uint64(i)
			b.up(i)
		}
		b.seq = probeHeap
	}
	for i := range b.heap { // warm the cache
		b.sink += b.heap[i].at
	}
	start := time.Now()
	for i := 0; i < probeOps; i++ {
		b.seq++
		b.heap[0].at += 1 + b.next()%1000
		b.heap[0].seq = b.seq
		b.down(0)
	}
	return time.Since(start).Seconds()
}

func (b *burst) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if b.less(p, i) {
			return
		}
		b.heap[p], b.heap[i] = b.heap[i], b.heap[p]
		i = p
	}
}

func (b *burst) down(i int) {
	for {
		l := 2*i + 1
		if l >= probeHeap {
			return
		}
		m := l
		if r := l + 1; r < probeHeap && b.less(r, l) {
			m = r
		}
		if b.less(i, m) {
			return
		}
		b.heap[i], b.heap[m] = b.heap[m], b.heap[i]
		i = m
	}
}

// speedOf is the host's speed while the bursts timed in samples ran,
// relative to the reference: above 1 is faster. The typical burst is the
// mean of the middle half of the samples. A burst the host interrupts
// takes many times its usual time, which would swamp a plain mean. Over
// eight blocks of 25 s per workload, this made the normalised CPU times of
// a block's executions spread 4–7%, against 5–8% with the median.
func speedOf(samples []float64) float64 {
	s := sorted(samples)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, d := range mid {
		sum += d
	}
	return speedRef * float64(len(mid)) / sum
}

// normalize scales one execution's wall and CPU seconds to the reference
// speed: the probe bursts' own time is taken out, and the rest is scaled by
// the host's speed. Without samples the times are returned as measured.
func normalize(wall, cpu float64, samples []float64) (normWall, normCPU float64) {
	if len(samples) == 0 {
		return wall, cpu
	}
	var busy float64
	for _, d := range samples {
		busy += d
	}
	f := speedOf(samples)
	return (wall - busy) * f, (cpu - busy) * f
}
