package bmcast

// The benchmark harness: one testing.B benchmark per table/figure in the
// paper's evaluation (regenerating its rows at reduced scale and reporting
// the headline metrics), plus micro-benchmarks of the core data paths and
// ablations of the design choices DESIGN.md calls out.
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkFig7 -benchtime=1x

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/aoe"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/experiments"
	"repro/internal/guest"
	"repro/internal/hw/disk"
	"repro/internal/hw/nic"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/vblade"
)

// benchOpt returns reduced-scale options sized for benchmarking.
func benchOpt() experiments.Options {
	o := experiments.Quick()
	o.ImageBytes = 1 << 30
	o.DevirtImageBytes = 128 << 20
	o.DBSeconds = 10 * sim.Second
	o.MPIIterations = 10
	o.RDMAIterations = 100
	return o
}

// runFigure runs a registered experiment once per iteration.
func runFigure(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		tables := r.Run(opt)
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// --- one benchmark per paper table/figure --------------------------------

func BenchmarkFig4StartupTime(b *testing.B)        { runFigure(b, "fig4") }
func BenchmarkFig5Database(b *testing.B)           { runFigure(b, "fig5") }
func BenchmarkFig6MPI(b *testing.B)                { runFigure(b, "fig6") }
func BenchmarkFig7Kernbench(b *testing.B)          { runFigure(b, "fig7") }
func BenchmarkFig8Threads(b *testing.B)            { runFigure(b, "fig8") }
func BenchmarkFig9Memory(b *testing.B)             { runFigure(b, "fig9") }
func BenchmarkFig10StorageThroughput(b *testing.B) { runFigure(b, "fig10") }
func BenchmarkFig11StorageLatency(b *testing.B)    { runFigure(b, "fig11") }
func BenchmarkFig12IBThroughput(b *testing.B)      { runFigure(b, "fig12") }
func BenchmarkFig13IBLatency(b *testing.B)         { runFigure(b, "fig13") }
func BenchmarkFig14Moderation(b *testing.B)        { runFigure(b, "fig14") }

// --- full-registry sweep through the work-pool runner ---------------------

// BenchmarkRegistrySweep runs the complete experiment registry at tiny
// scale through experiments.RunAll, sequentially and with one worker per
// P (GOMAXPROCS). The two sub-benchmarks produce identical tables (the
// runner derives each cell's seed from the base seed and cell id alone);
// the ratio of their wall-clock times is the sweep's parallel speedup.
func BenchmarkRegistrySweep(b *testing.B) {
	opt := benchOpt()
	opt.ImageBytes = 128 << 20
	opt.DevirtImageBytes = 32 << 20
	opt.DBSeconds = 2 * sim.Second
	pars := []int{1, runtime.GOMAXPROCS(0)}
	if pars[1] == 1 {
		// One P: the "parallel" run would duplicate the sequential one's
		// name (testing would emit parallel-1 and parallel-1#01) and its
		// result. bench2json aggregates duplicates, but don't produce them.
		pars = pars[:1]
	}
	for _, par := range pars {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results := experiments.RunAll(experiments.Registry(), opt, par)
				for _, res := range results {
					if len(res.Tables) == 0 {
						b.Fatalf("%s produced no tables", res.Runner.ID)
					}
				}
			}
		})
	}
}

// --- deployment macro-benchmark -------------------------------------------

// BenchmarkDeployment measures a full BMcast deployment (1 GB image) from
// power-on to de-virtualization, reporting instance-ready and bare-metal
// times in simulated seconds.
func BenchmarkDeployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := testbed.DefaultConfig()
		cfg.Seed = int64(i + 1)
		cfg.ImageBytes = 1 << 30
		tb := testbed.New(cfg)
		n := tb.AddNode(cfg)
		bp := guest.DefaultBootProfile()
		bp.SpanSectors = cfg.ImageBytes / 2 / disk.SectorSize
		var ready, bare float64
		tb.K.Spawn("deploy", func(p *sim.Proc) {
			res, err := tb.DeployBMcast(p, n, core.DefaultConfig(), bp)
			if err != nil {
				b.Error(err)
				return
			}
			tb.WaitBareMetal(p, n, res)
			ready = res.GuestBooted.Sub(res.FirmwareDone).Seconds()
			bare = res.BareMetal.Sub(res.FirmwareDone).Seconds()
			tb.K.Stop()
		})
		tb.K.Run()
		if _, err := tb.VerifyDeployment(n); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ready, "sim-s/ready")
		b.ReportMetric(bare, "sim-s/baremetal")
	}
}

// BenchmarkFleetDeploy measures the fleet fast path: 32 simultaneous
// BMcast deployments streaming one 1 GB image through a single
// cache-enabled vblade. It reports the worst time-to-ready, the serving
// cache's hit rate, and the server's aggregate simulated throughput.
func BenchmarkFleetDeploy(b *testing.B) {
	const fleet = 32
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		r, err := experiments.FleetRun(opt, fleet, true)
		if err != nil {
			b.Fatal(err)
		}
		if r.HitRate <= 0.9 {
			b.Fatalf("fleet cache hit rate = %.4f, want > 0.9", r.HitRate)
		}
		b.ReportMetric(r.Worst.Seconds(), "sim-s/worst-ready")
		b.ReportMetric(r.ReadyP50.Seconds(), "sim-s/p50-ready")
		b.ReportMetric(r.ReadyP99.Seconds(), "sim-s/p99-ready")
		b.ReportMetric(r.HitRate, "hit-rate")
		b.ReportMetric(float64(r.Served)/r.Elapsed.Seconds()/1e6, "sim-MB/s/served")
	}
}

// fleetShards runs the fleet cell on the per-node partition (DESIGN.md
// §13): one domain per node plus a hub, stepped in barrier windows.
// Every shards value ≥ 1 runs the same schedule.
func fleetShards(b *testing.B, shards int) {
	const fleet = 32
	opt := benchOpt()
	opt.Shards = shards
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		r, err := experiments.FleetRun(opt, fleet, true)
		if err != nil {
			b.Fatal(err)
		}
		if r.HitRate <= 0.9 {
			b.Fatalf("fleet cache hit rate = %.4f, want > 0.9", r.HitRate)
		}
		b.ReportMetric(r.Worst.Seconds(), "sim-s/worst-ready")
		b.ReportMetric(r.ReadyP50.Seconds(), "sim-s/p50-ready")
		b.ReportMetric(r.HitRate, "hit-rate")
	}
}

// BenchmarkFleetDeployShards1 is the sharded-executor row of the fleet
// macro-benchmark: the same cell as BenchmarkFleetDeploy decomposed into
// one domain per node plus a hub. Against the single-kernel
// BenchmarkFleetDeploy it is the cost (or win) of the decomposition.
func BenchmarkFleetDeployShards1(b *testing.B) { fleetShards(b, 1) }

// BenchmarkFleetDeployObs is the traced variant of the fleet deployment:
// 32 instances with the causal recorder attached, run to bare metal on
// every node, then pushed through the critical-path analyzer. It reports
// the fleet's time-to-bare-metal percentiles — the paper's headline
// agility numbers — and pins the cost of observing a deployment end to
// end. The image is reduced because the traced run must wait for every
// background full copy, not just guest boot.
func BenchmarkFleetDeployObs(b *testing.B) {
	const fleet = 32
	opt := benchOpt()
	opt.ImageBytes = 32 << 20
	opt.BootBytes = 1 << 20
	opt.EnableTrace = true
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		r, err := experiments.FleetRun(opt, fleet, true)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := obs.Analyze(r.Trace, r.Snapshot)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Instances) != fleet {
			b.Fatalf("analyzer saw %d instances, want %d", len(rep.Instances), fleet)
		}
		if rep.Fleet.BareMetal == nil {
			b.Fatal("no bare-metal percentiles in traced fleet run")
		}
		b.ReportMetric(sim.Duration(rep.Fleet.BareMetal.P50).Seconds(), "sim-s/p50-baremetal")
		b.ReportMetric(sim.Duration(rep.Fleet.BareMetal.P99).Seconds(), "sim-s/p99-baremetal")
		b.ReportMetric(float64(len(r.Trace.Spans())), "spans")
	}
}

// BenchmarkElasticity measures the elastic control plane cell: open-loop
// tenant traffic admitted through the bounded queue while the fault storm
// partitions a rack and crash-loops the storage server. It reports the
// pre-storm and recovered time-to-bare-metal percentiles — the recovery
// claim — plus how much the storm shed and quarantined.
func BenchmarkElasticity(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		r, err := experiments.ElasticityRun(opt, 0,
			experiments.ElasticProfile(), experiments.ElasticStorm())
		if err != nil {
			b.Fatal(err)
		}
		pre, rec := r.Phases[0], r.Phases[len(r.Phases)-1]
		b.ReportMetric(pre.BareP50.Seconds(), "sim-s/p50-baremetal-pre")
		b.ReportMetric(rec.BareP50.Seconds(), "sim-s/p50-baremetal-recovered")
		b.ReportMetric(rec.BareP99.Seconds(), "sim-s/p99-baremetal-recovered")
		b.ReportMetric(float64(r.ShedTotal), "shed")
		b.ReportMetric(float64(r.Quarantines), "quarantines")
	}
}

// --- ablations -------------------------------------------------------------

// BenchmarkAblationInterruptStrategy compares the paper's dummy-sector
// restart (real hardware raises the interrupt) against virtualized
// interrupt injection, measuring guest boot time under mediation.
func BenchmarkAblationInterruptStrategy(b *testing.B) {
	for _, virt := range []bool{false, true} {
		name := "dummy-restart"
		if virt {
			name = "virtual-irq"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := testbed.DefaultConfig()
				cfg.Seed = int64(i + 1)
				cfg.ImageBytes = 256 << 20
				tb := testbed.New(cfg)
				n := tb.AddNode(cfg)
				n.M.Firmware.InitTime = sim.Second
				vcfg := core.DefaultConfig()
				vcfg.VirtualIRQ = virt
				bp := guest.DefaultBootProfile()
				bp.TotalBytes = 16 << 20
				bp.CPUTime = sim.Second
				bp.SpanSectors = cfg.ImageBytes / 2 / disk.SectorSize
				var boot float64
				tb.K.Spawn("deploy", func(p *sim.Proc) {
					res, err := tb.DeployBMcast(p, n, vcfg, bp)
					if err != nil {
						b.Error(err)
						return
					}
					boot = res.GuestBooted.Sub(res.VMMBooted).Seconds()
					tb.K.Stop()
				})
				tb.K.Run()
				b.ReportMetric(boot, "sim-s/boot")
			}
		})
	}
}

// BenchmarkAblationPollingInterval sweeps the mediator's device polling
// interval (the paper derives it from RTT; §4.1) and reports mediated
// boot time — too coarse wastes latency, too fine wastes CPU.
func BenchmarkAblationPollingInterval(b *testing.B) {
	for _, poll := range []sim.Duration{50 * sim.Microsecond, 200 * sim.Microsecond, 600 * sim.Microsecond, 2 * sim.Millisecond} {
		b.Run(poll.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := testbed.DefaultConfig()
				cfg.Seed = int64(i + 1)
				cfg.ImageBytes = 256 << 20
				tb := testbed.New(cfg)
				n := tb.AddNode(cfg)
				n.M.Firmware.InitTime = sim.Second
				vcfg := core.DefaultConfig()
				vcfg.MinPoll, vcfg.MaxPoll = poll, poll
				bp := guest.DefaultBootProfile()
				bp.TotalBytes = 16 << 20
				bp.CPUTime = sim.Second
				bp.SpanSectors = cfg.ImageBytes / 2 / disk.SectorSize
				var boot float64
				tb.K.Spawn("deploy", func(p *sim.Proc) {
					res, err := tb.DeployBMcast(p, n, vcfg, bp)
					if err != nil {
						b.Error(err)
						return
					}
					boot = res.GuestBooted.Sub(res.VMMBooted).Seconds()
					tb.K.Stop()
				})
				tb.K.Run()
				b.ReportMetric(boot, "sim-s/boot")
			}
		})
	}
}

// BenchmarkAblationVbladePool reproduces the §4.2 server scaling: transfer
// rate against worker-pool size (1 = original single-threaded vblade).
func BenchmarkAblationVbladePool(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(strconv.Itoa(threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := sim.New(int64(i + 1))
				sw := ethernet.NewSwitch(k, "sw", 5*sim.Microsecond)
				cl := nic.New(k, "cl", nic.IntelPro1000, 2, sw.Connect(ethernet.GigabitJumbo()))
				sv := nic.New(k, "sv", nic.IntelX540, 1, sw.Connect(ethernet.GigabitJumbo()))
				img := disk.NewSynthImage("img", 128<<20, 7)
				srv := vblade.NewServer(k, sv, threads)
				srv.AddTarget(0, 0, img)
				srv.Start()
				in := aoe.NewInitiator(k, cl, 1, 0, 0)
				var rate float64
				k.Spawn("client", func(p *sim.Proc) {
					start := p.Now()
					const total = 64 << 20
					for lba := int64(0); lba < total/disk.SectorSize; lba += 2048 {
						if _, err := in.Read(p, lba, 2048); err != nil {
							b.Error(err)
							return
						}
					}
					rate = total / p.Now().Sub(start).Seconds()
				})
				k.Run()
				b.ReportMetric(rate/1e6, "MB/s")
			}
		})
	}
}

// --- micro-benchmarks of the core data paths -------------------------------

func BenchmarkAoEHeaderMarshal(b *testing.B) {
	h := aoe.Header{Major: 1, Tag: 0xABCDEF, Count: 17, LBA: 1 << 30, Cmd: aoe.CmdReadDMAExt}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := aoe.Unmarshal(h.Marshal()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBitmapMarkFilled(b *testing.B) {
	bm := core.NewBitmap(64 << 20 / disk.SectorSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := int64(i*2048) % (bm.Sectors() - 2048)
		bm.MarkFilled(lba, 2048)
	}
}

func BenchmarkBitmapNextUnfilled(b *testing.B) {
	bm := core.NewBitmap(32 << 30 / disk.SectorSize)
	bm.MarkFilled(0, bm.Sectors()/2) // half full: realistic mid-deployment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := bm.NextUnfilled(int64(i)%bm.Sectors(), 2048); !ok {
			b.Fatal("bitmap unexpectedly complete")
		}
	}
}

func BenchmarkStoreWrite(b *testing.B) {
	s := disk.NewStore(1 << 21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := int64(i*8) % (s.Sectors() - 8)
		s.Write(lba, 8, disk.Synth{Seed: int64(i % 7)})
	}
}

// BenchmarkStoreWriteFragmented times one Store.Write on a store
// fragmented into about 16 k extents, the shape guest writes leave: each
// op overwrites one scattered 8-sector fragment with the other of two
// pre-boxed sources, so the extent count stays put. It mirrors
// bmcast-bench's disk.ns_per_write_fragmented probe.
func BenchmarkStoreWriteFragmented(b *testing.B) {
	const frags, stride = 8192, 64
	s := disk.NewStore(frags * stride * 2)
	srcs := [2]disk.SectorSource{disk.Synth{Seed: 1}, disk.Synth{Seed: 2}}
	for i := int64(0); i < frags; i++ {
		s.Write(i*stride, 8, srcs[i%2])
	}
	flip := make([]int, frags)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := (i * 4099) % frags // visit fragments in a scattered order
		flip[f] ^= 1
		s.Write(int64(f)*stride, 8, srcs[(f+flip[f])%2])
	}
}

// BenchmarkTraceDisabled pins the cost of instrumentation left in place
// with no recorder attached: every call site pays one nil pointer check
// and nothing else (no allocations).
func BenchmarkTraceDisabled(b *testing.B) {
	var r *trace.Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.Begin("node0", "mediator", "redirect")
		r.Emit("node0", "cpuvirt", "vm-exit")
		sp.End()
	}
}

// BenchmarkTraceEnabled is the same call sequence against a live recorder,
// for comparison with BenchmarkTraceDisabled.
func BenchmarkTraceEnabled(b *testing.B) {
	r := trace.NewRecorder(sim.New(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.Begin("node0", "mediator", "redirect")
		r.Emit("node0", "cpuvirt", "vm-exit")
		sp.End()
	}
}

func BenchmarkSimEventThroughput(b *testing.B) {
	k := sim.New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(sim.Microsecond, tick)
		}
	}
	b.ResetTimer()
	k.After(sim.Microsecond, tick)
	k.Run()
}

// BenchmarkSimEventHeap times one event against a heap of 128 pending,
// about the mean heap of the fleet32 workload, so unlike
// BenchmarkSimEventThroughput it sees how far each event sifts. 128 chains
// reschedule themselves with seeded delays drawn from fleet32's measured
// mix: 13% zero, 17% under 1 µs, 28% under 10 µs, 20% under 100 µs, 14%
// under 1 ms and 8% from 1 to 10 ms. One op is one fired event; the
// steady state allocates nothing.
func BenchmarkSimEventHeap(b *testing.B) {
	const chains = 128
	k := sim.New(1)
	bands := []struct {
		pct    int
		lo, hi sim.Duration
	}{{13, 0, 0}, {17, 1, sim.Microsecond}, {28, sim.Microsecond, 10 * sim.Microsecond},
		{20, 10 * sim.Microsecond, 100 * sim.Microsecond}, {14, 100 * sim.Microsecond, sim.Millisecond},
		{8, sim.Millisecond, 10 * sim.Millisecond}}
	delays := make([]sim.Duration, 1<<12)
	for i := range delays {
		p := k.Rand().Intn(100)
		for _, band := range bands {
			if p -= band.pct; p < 0 {
				if band.hi > band.lo {
					delays[i] = band.lo + sim.Duration(k.Rand().Int63n(int64(band.hi-band.lo)))
				}
				break
			}
		}
	}
	n, next := 0, 0
	var tick func()
	tick = func() {
		n++
		if n <= b.N-chains {
			k.After(delays[next%len(delays)], tick)
			next++
		}
	}
	for ; next < chains; next++ {
		k.After(delays[next], tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcSwitch times one process switch: two processes hand
// control to each other through signals, and one op is one park. The
// steady state allocates nothing.
func BenchmarkProcSwitch(b *testing.B) {
	k := sim.New(1)
	ping, pong := k.NewSignal("ping"), k.NewSignal("pong")
	turn := 0
	rounds := (b.N + 1) / 2 // each round parks both processes once
	k.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			turn = 1
			pong.Broadcast()
			p.WaitCond(ping, func() bool { return turn == 0 })
		}
	})
	k.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			p.WaitCond(pong, func() bool { return turn == 1 })
			turn = 0
			ping.Broadcast()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcSpawn times the life of a short-lived process, the shape
// of the mediator's per-command processes: spawn, run once, finish. After
// the first op every spawn reuses a pooled coroutine.
func BenchmarkProcSpawn(b *testing.B) {
	k := sim.New(1)
	body := func(p *sim.Proc) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Spawn("short", body)
		k.Run()
	}
}

// BenchmarkShardWindowSparse times one barrier window of a mostly idle
// partition, the shape of the per-node fleet between bursts: 33 domains at
// the fleet's 100 µs window, of which one ticks once a window and posts to
// domain 0. One op is one tick and one window, in which the ticking domain
// and domain 0, firing the last tick's post, run. The steady state
// allocates nothing.
func BenchmarkShardWindowSparse(b *testing.B) {
	const window = 100 * sim.Microsecond
	s := sim.NewShardSet(1, window)
	doms := make([]*sim.Kernel, 33)
	for i := range doms {
		doms[i] = s.NewDomain(fmt.Sprintf("d%d", i))
	}
	k, hub := doms[len(doms)-1], doms[0]
	n, delivered := 0, 0
	deliver := func() { delivered++ }
	var tick func()
	tick = func() {
		k.Post(hub, k.Now().Add(2*sim.Microsecond), deliver)
		if n++; n < b.N {
			k.After(window, tick)
		}
	}
	k.After(sim.Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(nil)
	if delivered != b.N {
		b.Fatalf("delivered %d posts, want %d", delivered, b.N)
	}
}

func BenchmarkMediatedReadRedirect(b *testing.B) {
	// Cost of one copy-on-read redirect (4 KB), end to end through
	// mediator, AoE, server, and local write-through.
	cfg := testbed.DefaultConfig()
	cfg.ImageBytes = 8 << 30
	tb := testbed.New(cfg)
	n := tb.AddNode(cfg)
	n.M.Firmware.InitTime = sim.Second
	vcfg := core.DefaultConfig()
	vcfg.WriteInterval = sim.Hour // keep the background copy out of the way
	bp := guest.DefaultBootProfile()
	bp.TotalBytes = 1 << 20
	bp.CPUTime = 100 * sim.Millisecond
	bp.SpanSectors = 1 << 20
	tb.K.Spawn("prep", func(p *sim.Proc) {
		if _, err := tb.DeployBMcast(p, n, vcfg, bp); err != nil {
			b.Error(err)
		}
		tb.K.Stop()
	})
	tb.K.Run()
	b.ResetTimer()
	done := false
	tb.K.Spawn("bench", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < b.N; i++ {
			lba := (1 << 21) + int64(i)*8%(4<<21)
			if _, err := n.OS.ReadSectors(p, lba, 8, true); err != nil {
				b.Error(err)
				return
			}
		}
		b.ReportMetric(p.Now().Sub(start).Seconds()*1e3/float64(b.N), "sim-ms/redirect")
		done = true
		tb.K.Stop()
	})
	for !done && tb.K.Pending() > 0 {
		tb.K.RunUntil(tb.K.Now().Add(sim.Hour))
	}
}

// BenchmarkHistogramPercentile pins the sort-once contract: repeated
// percentile queries against an unchanged histogram reuse its sorted runs
// instead of re-sorting per call, so the steady-state query is O(1) for
// distinct samples and allocation-free. The fleet summary tables query
// p50/p99/max back to back on thousand-sample histograms; re-sorting per
// query would make that path the analyzer's hot spot.
func BenchmarkHistogramPercentile(b *testing.B) {
	h := &metrics.Histogram{}
	r := sim.New(7).Rand()
	for i := 0; i < 4096; i++ {
		h.Observe(sim.Duration(r.Intn(1e9)))
	}
	h.Percentile(50) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.Percentile(50) > h.Percentile(99) {
			b.Fatal("p50 above p99")
		}
	}
}
