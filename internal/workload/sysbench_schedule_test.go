package workload

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cpuvirt"
	"repro/internal/machine"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// sysbenchScheduleRun runs 4 SysBench threads on a virtualized machine
// with lock-holder preemption on and returns the schedule: every mutex
// acquire and release with its instant, and the elapsed time. A VMM
// preemption timer charges VMM work throughout and the run straddles a
// one-second tax window, so the slowdown the threads read changes while
// they run.
func sysbenchScheduleRun(t *testing.T) string {
	t.Helper()
	k := sim.New(3)
	cfg := machine.RX200S6("m0")
	cfg.MemBytes = 256 << 20
	m := machine.New(k, cfg)
	m.World.EnterVMX()
	m.World.Overheads = cpuvirt.Overheads{
		MemPenalty:   0.3,
		CPUTaxStatic: 0.01,
		LHPProb:      5e-5,
		LHPStall:     1500 * sim.Microsecond,
	}
	timer := m.World.StartPreemptionTimer(20*sim.Microsecond, func() { m.World.RecordVMMWork(15 * sim.Microsecond) })
	var log bytes.Buffer
	events := 0
	hook := func(thread, mutex int, acquired bool) {
		events++
		op := "release"
		if acquired {
			op = "acquire"
		}
		fmt.Fprintf(&log, "%d t%d %s m%d\n", k.Now(), thread, op, mutex)
	}
	var res ThreadsResult
	k.Spawn("sb", func(p *sim.Proc) {
		p.Sleep(995 * sim.Millisecond)
		res = sysbenchThreads(p, m, 4, hook)
		timer.Stop()
	})
	k.Run()
	if res.Threads != 4 || res.Elapsed <= 0 {
		t.Fatalf("result %+v", res)
	}
	const head = 120
	lines := bytes.SplitAfter(log.Bytes(), []byte("\n"))
	var out bytes.Buffer
	for i := 0; i < head && i < len(lines); i++ {
		out.Write(lines[i])
	}
	h := fnv.New64a()
	h.Write(log.Bytes())
	fmt.Fprintf(&out, "events=%d log_fnv=%x elapsed=%d end=%d\n", events, h.Sum64(), res.Elapsed, k.Now())
	return out.String()
}

// TestSysbenchScheduleGolden pins the SysBench thread schedule: the first
// lock events verbatim, a checksum over every acquire and release instant,
// and the elapsed time must match the recorded golden byte for byte.
// Regenerate with -update only for an intended change of the modelled
// behaviour.
func TestSysbenchScheduleGolden(t *testing.T) {
	got := sysbenchScheduleRun(t)
	path := filepath.Join("testdata", "sysbench_schedule.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := bytes.Split([]byte(got), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("schedule differs from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("schedule differs from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestSysbenchThreadsSpawnsNoProcess pins the SysBench threads as
// callbacks: a measurement spawns no process and parks its caller once,
// and its 4,000 lock iterations allocate nothing, so a whole measurement
// allocates only its fixed set-up (the run, the mutexes and the thread
// records) plus the amortized growth of the mutexes' waiter lists.
func TestSysbenchThreadsSpawnsNoProcess(t *testing.T) {
	k := sim.New(1)
	cfg := machine.RX200S6("m0")
	cfg.MemBytes = 256 << 20
	m := machine.New(k, cfg)
	m.World.Overheads.LHPProb = 5e-5
	m.World.Overheads.LHPStall = 1500 * sim.Microsecond
	requests := sim.NewQueue[int](k, "req")
	var spawns, parks int
	k.SetProcHook(func(_ sim.Time, ev sim.ProcEvent, name string) {
		switch {
		case ev == sim.ProcSpawn:
			spawns++
		case ev == sim.ProcPark && name == "sb":
			parks++
		}
	})
	runs := 0
	k.Spawn("sb", func(p *sim.Proc) {
		for {
			n, ok := requests.Pop(p)
			if !ok {
				return
			}
			if r := SysbenchThreads(p, m, n); r.Elapsed <= 0 {
				t.Errorf("threads=%d elapsed %v", n, r.Elapsed)
			}
			runs++
		}
	})
	k.Run()
	measure := func() {
		requests.Push(4)
		k.Run()
	}
	measure() // warm
	spawns, parks = 0, 0
	measure()
	if spawns != 0 {
		t.Errorf("a measurement spawned %d processes, want 0", spawns)
	}
	// One park in SysbenchThreads, one in the request queue's Pop.
	if parks != 2 {
		t.Errorf("a measurement parked its caller %d times, want 2", parks)
	}
	const iterations = 4 * sbIterations
	allocs := testing.AllocsPerRun(20, measure)
	if allocs >= iterations/40 {
		t.Errorf("a measurement of %d lock iterations allocates %v objects: an iteration allocates", iterations, allocs)
	}
	t.Logf("a 4-thread measurement allocates %v objects", allocs)
}
