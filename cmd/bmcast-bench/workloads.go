package main

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/guest"
	"repro/internal/hw/disk"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tenants"
	"repro/internal/testbed"
)

// workload is one scenario the benchmark runs. run builds the scenario
// from the public testbed/cloud/guest/experiments APIs, calls r.ready
// right before the first RunUntil, drives the simulation through r, and
// fills r.out. README.md says why each workload is in the set.
type workload struct {
	name string
	run  func(r *run, seed int64, sc scale)
}

// workloads is the benchmark's fixed set, in report order.
var workloads = []workload{
	{"fleet32", func(r *run, seed int64, sc scale) { runFleet(r, seed, sc, 0).report(r, sc) }},
	{"fleet32-sharded", func(r *run, seed int64, sc scale) {
		runFleet(r, seed, sc, fleetShardWorkers).report(r, sc)
	}},
	{"deploy-rw", runDeployRW},
	{"elastic-storm", func(r *run, seed int64, sc scale) { runElastic(r, seed, sc).report(r) }},
	{"paper-figs", runPaperFigs},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes every workload. benchScale is what the benchmark runs; the
// tests substitute a tiny one.
type scale struct {
	Fleet      int
	FleetImage int64
	FleetBoot  int64

	DeployImage int64
	DeployBoot  int64
	DeployIOs   int

	ElasticPool    int
	ElasticImage   int64
	ElasticBoot    int64
	ElasticProfile tenants.Profile
	ElasticStorm   faults.StormConfig

	Figs    []string
	FigOpts experiments.Options

	// UnitCostBatches is how many timed batches each traced-mode unit-cost
	// probe runs; the probe reports their median.
	UnitCostBatches int
}

// benchScale keeps one execution of every workload at 1.5–3.5 s of host
// time on a 2-vCPU host, so a 25 s run repeats each 7–15 times.
var benchScale = scale{
	Fleet:      32,
	FleetImage: 64 << 20,
	FleetBoot:  8 << 20,

	DeployImage: 2 << 30,
	DeployBoot:  16 << 20,
	DeployIOs:   16384,

	ElasticPool:    12,
	ElasticImage:   16 << 20,
	ElasticBoot:    8 << 20,
	ElasticProfile: experiments.ElasticProfile(),
	ElasticStorm:   experiments.ElasticStorm(),

	// fig5 and fig14 are left out: at paper scale they take 22 s and
	// 2.3 s, more than a run can repeat.
	Figs:    []string{"fig4", "fig6", "fig7", "fig8", "fig9", "fig11", "fig12", "fig13"},
	FigOpts: experiments.Default(),

	UnitCostBatches: 15,
}

// activeScale is the scale child processes run at: benchScale, except
// inside this package's tests.
var activeScale = benchScale

const (
	// The fleet cell's serving cache: 1 GB in 128 KB extents, as
	// experiments.Fleet configures it.
	fleetCacheBudget   = 1 << 30
	fleetExtentSectors = 256
	// fleetShardWorkers is the shard count fleet32-sharded requests. Its
	// executions run with GOMAXPROCS=1 like every other, so the executor
	// clamps it to one live worker: the domains, barrier windows and
	// cross-domain mailboxes all run, the parallel helpers do not.
	fleetShardWorkers = 2
	// fleetMinHitRate is the serving-cache hit rate below which the
	// elasticity fan-in no longer shares one working set.
	fleetMinHitRate = 0.9

	// elasticModelSeed fixes the tenant arrival stream. A Poisson stream's
	// request count swings ±15% between seeds, which would swamp the
	// host-time bounds, so -seed varies this workload's image contents
	// only.
	elasticModelSeed = 1
	// elasticDrain matches the experiments package's post-storm window:
	// requests submitted within it are still clearing the backlog.
	elasticDrain = 60 * sim.Second
	// elasticMaxRecovery is how much slower the recovered phase's median
	// time to bare metal may be than the pre-storm one.
	elasticMaxRecovery = 1.10

	// guestIOSectors is the size of one deploy-rw guest I/O (64 KB),
	// issued at 4 KB-aligned LBAs.
	guestIOSectors = 128
	guestIOAlign   = 8
)

// inputSeed derives the seed of one harness-generated input from the
// benchmark seed, so each input varies independently with -seed.
func inputSeed(seed int64, input string) int64 {
	return experiments.DeriveSeed(seed, "bmcast-bench/"+input)
}

// outcome is what one execution of a workload reports. Everything in it
// is simulated output or a work count, so it repeats exactly for a seed.
type outcome struct {
	// Ops counts simulated operations (deployments, guest I/Os, tenant
	// requests, figure cells); Failed counts the ones that failed a check,
	// plus one per failed whole-run check. Problems says what failed.
	Ops      int
	Failed   int
	Problems []string

	// Model holds the simulated system's outputs (model.* metrics) and
	// Counts the per-layer work counts; Tails labels the tail percentiles.
	Model  map[string]float64
	Counts map[string]float64
	Tails  map[string]string

	SimSeconds  float64
	Fingerprint string
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// modelTimes fills the median and tail of one simulated latency set.
func (o *outcome) modelTimes(name string, ds []sim.Duration) {
	if len(ds) == 0 {
		o.Model[name+"_p50"], o.Model[name+"_tail"] = 0, 0
		o.Tails[name+"_tail"] = "n=0"
		return
	}
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	sort.Float64s(s)
	v, label := tail(s)
	o.Model[name+"_p50"] = median(s)
	o.Model[name+"_tail"] = v
	o.Tails[name+"_tail"] = label
}

func newOutcome() outcome {
	return outcome{Model: map[string]float64{}, Counts: map[string]float64{}, Tails: map[string]string{}}
}

// fingerprint hashes simulated outputs: a simulator-only change must leave
// it unchanged.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) add(format string, args ...any) { fmt.Fprintf(f.h, format+"\n", args...) }

func (f *fingerprint) snapshot(s metrics.Snapshot) {
	for _, x := range s.Samples {
		f.add("%s %v %s %v %d %d %d", x.Name, x.Labels, x.Kind, x.Value, x.Count, x.P50, x.Max)
	}
}

// content hashes a few sectors of the image and of every node's local
// disk, so the image and guest data contents are part of the fingerprint
// (released machines are scrubbed, so their disks no longer hold either).
func (f *fingerprint) content(tb *testbed.Testbed) {
	buf := make([]byte, 8*disk.SectorSize)
	lbas := []int64{0, tb.Image.Sectors / 2, tb.Image.Sectors - 8}
	for _, lba := range lbas {
		tb.Image.ReadAt(lba, buf)
		f.h.Write(buf)
	}
	for _, n := range tb.Nodes {
		for _, lba := range lbas {
			n.M.Disk.Store().ReadAt(lba, buf)
			f.h.Write(buf)
		}
	}
}

func (f *fingerprint) sum() string { return fmt.Sprintf("%016x", f.h.Sum64()) }

// procCounts counts one kernel's process lifecycle events. Each shard
// domain gets its own, so worker goroutines never share one.
type procCounts struct{ spawned, switches int64 }

// countProcs installs a process hook on every kernel of tb. Processes
// spawned while the testbed was assembled are not counted.
func countProcs(tb *testbed.Testbed) []*procCounts {
	ks := []*sim.Kernel{tb.K}
	if tb.Sharded() {
		ks = tb.Set.Domains()
	}
	out := make([]*procCounts, len(ks))
	for i, k := range ks {
		pc := &procCounts{}
		out[i] = pc
		k.SetProcHook(func(_ sim.Time, ev sim.ProcEvent, _ string) {
			switch ev {
			case sim.ProcSpawn:
				pc.spawned++
			case sim.ProcPark:
				pc.switches++
			}
		})
	}
	return out
}

// layerCounts reads the per-layer work counts of a finished run from its
// instrument registry snapshot, its nodes' disks and the process hooks.
// The cloud.* counts come from the control plane, where one exists; a
// count a workload does not set reports 0.
func layerCounts(o *outcome, nodes []*testbed.Node, snap metrics.Snapshot, procs []*procCounts) {
	// sum adds a counter over its label sets. A frame counts once, on the
	// link that transmits it.
	sum := func(name string) float64 {
		var v float64
		for _, s := range snap.Samples {
			if s.Name == name && s.Kind == "counter" && !slices.Contains(s.Labels, metrics.L("dir", "rx")) {
				v += s.Value
			}
		}
		return v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var spawned, switches int64
	for _, pc := range procs {
		spawned += pc.spawned
		switches += pc.switches
	}
	var extents int
	for _, n := range nodes {
		extents += len(n.M.Disk.Store().Extents())
	}
	hits := sum("vblade.cache_hits") + sum("vblade.coalesced_reads")
	c := o.Counts
	c["sim.proc_switches"] = float64(switches)
	c["sim.procs_spawned"] = float64(spawned)
	c["ethernet.frames"] = sum("ethernet.frames")
	c["aoe.requests"] = sum("aoe.requests")
	c["aoe.retransmit_ratio"] = ratio(sum("aoe.retransmits"), sum("aoe.requests"))
	c["vblade.requests"] = sum("vblade.requests")
	c["vblade.cache_hit_rate"] = ratio(hits, hits+sum("vblade.cache_misses"))
	c["vblade.coalesced_reads"] = sum("vblade.coalesced_reads")
	c["mediator.guest_commands"] = sum("mediator.guest_commands")
	c["mediator.redirects"] = sum("mediator.redirects")
	c["mediator.polls"] = sum("mediator.polls")
	c["core.copied_mb"] = sum("vmm.copied_bytes") / 1e6
	c["core.copy_conflicts"] = sum("vmm.copy_conflicts")
	c["core.bitmap_hit_ratio"] = ratio(sum("vmm.bitmap_hits"), sum("vmm.bitmap_hits")+sum("vmm.bitmap_misses"))
	c["disk.extents_end"] = float64(extents)
	c["faults.injected"] = sum("faults.injected")
	c["cpuvirt.exits"] = sum("cpuvirt.exits")
}

// --- fleet32 / fleet32-sharded ----------------------------------------------

// fleetRun is one fleet execution, kept whole so the cross-check test can
// compare it with experiments.FleetRun.
type fleetRun struct {
	tb      *testbed.Testbed
	c       *cloud.Controller
	procs   []*procCounts
	elapsed sim.Duration
	errs    []error
}

// runFleet deploys sc.Fleet simultaneous BMcast instances at t=0 (a burst,
// open loop in simulated time) against one vblade with its extent cache
// on, and runs until every instance is ready. It builds the cell exactly
// as experiments.FleetRun does.
func runFleet(r *run, seed int64, sc scale, shards int) *fleetRun {
	tcfg := testbed.DefaultConfig()
	tcfg.Seed = seed
	tcfg.ImageSeed = inputSeed(seed, "image")
	tcfg.ImageBytes = sc.FleetImage
	tcfg.Shards = shards
	tb := testbed.New(tcfg)
	tb.Server.EnableCache(fleetCacheBudget, fleetExtentSectors)
	c := cloud.NewController(tb, tcfg, sc.Fleet)
	c.BootProfile.TotalBytes = sc.FleetBoot
	for _, n := range tb.Nodes {
		n.M.Firmware.InitTime = 2 * sim.Second
	}
	fr := &fleetRun{tb: tb, c: c}
	done := 0
	finish := func(err error) {
		if err != nil {
			fr.errs = append(fr.errs, err)
		}
		done++
		if done == sc.Fleet {
			fr.elapsed = tb.K.Now().Sub(0)
			if !tb.Sharded() {
				tb.K.Stop() // sharded runs stop at the next window barrier
			}
		}
	}
	for i := 0; i < sc.Fleet; i++ {
		tb.K.Spawn("tenant", func(p *sim.Proc) {
			in, err := c.Request(cloud.StrategyBMcast)
			if err != nil {
				finish(fmt.Errorf("request: %w", err))
				return
			}
			if !in.WaitReady(p) {
				finish(fmt.Errorf("deploy: %w", in.Err()))
				return
			}
			finish(nil)
		})
	}
	fr.procs = countProcs(tb)
	r.ready()
	allDone := func() bool { return done >= sc.Fleet }
	if tb.Sharded() {
		r.simulateShards(tb.Set, allDone)
	} else {
		r.simulate(tb.K, sim.Time(1)<<62, allDone)
	}
	if done < sc.Fleet {
		fr.errs = append(fr.errs, fmt.Errorf("fleet: simulation went quiescent with %d of %d instances resolved", done, sc.Fleet))
	}
	return fr
}

func (fr *fleetRun) report(r *run, sc scale) {
	r.verify(func() {
		o := newOutcome()
		o.Ops = sc.Fleet
		var ready []sim.Duration
		fp := newFingerprint()
		for _, in := range fr.c.Instances() {
			fp.add("instance %d %v %d %d", in.ID, in.State(), in.RequestedAt, in.ReadyAt)
			if in.State() == cloud.StateReady {
				ready = append(ready, in.TimeToReady())
			}
		}
		for _, err := range fr.errs {
			o.fail("fleet: %v", err)
		}
		if rate := fr.tb.Server.CacheHitRate(); rate <= fleetMinHitRate {
			o.fail("fleet: serving-cache hit rate %.4f, want > %.2f", rate, fleetMinHitRate)
		}
		snap := fr.tb.Metrics.Snapshot()
		fp.snapshot(snap)
		fp.content(fr.tb)
		o.modelTimes("model.ready", ready)
		o.modelTimes("model.baremetal", nil)
		o.Model["model.fail_ratio"] = float64(sc.Fleet-len(ready)) / float64(sc.Fleet)
		o.Counts["cloud.submitted"] = float64(fr.c.Requested.Value())
		o.Counts["cloud.redeploys"] = float64(fr.c.Redeploys.Value())
		o.Counts["cloud.quarantines"] = float64(fr.c.Quarantines.Value())
		layerCounts(&o, fr.tb.Nodes, snap, fr.procs)
		o.SimSeconds = fr.elapsed.Seconds()
		o.Fingerprint = fp.sum()
		r.out = o
	})
}

// --- deploy-rw --------------------------------------------------------------

// guestIO is one harness-generated guest I/O.
type guestIO struct {
	lba   int64
	write bool
}

// deployIOs generates deploy-rw's guest I/O pattern: 64 KB at uniformly
// random 4 KB-aligned LBAs over the image, half of them writes.
func deployIOs(seed int64, sc scale) []guestIO {
	rng := rand.New(rand.NewSource(inputSeed(seed, "guest-io")))
	slots := (sc.DeployImage/disk.SectorSize - guestIOSectors) / guestIOAlign
	ios := make([]guestIO, sc.DeployIOs)
	for i := range ios {
		ios[i] = guestIO{lba: rng.Int63n(slots) * guestIOAlign, write: rng.Intn(2) == 0}
	}
	return ios
}

// runDeployRW deploys one node to bare metal while its guest, once booted,
// issues sc.DeployIOs back-to-back 64 KB I/Os (closed loop, depth 1), then
// checks the paper's end-state invariant: the local disk holds the image,
// except where the guest wrote, which holds the guest's data.
func runDeployRW(r *run, seed int64, sc scale) {
	tcfg := testbed.DefaultConfig()
	tcfg.Seed = seed
	tcfg.ImageSeed = inputSeed(seed, "image")
	tcfg.ImageBytes = sc.DeployImage
	tb := testbed.New(tcfg)
	n := tb.AddNode(tcfg)
	bp := guest.DefaultBootProfile()
	bp.TotalBytes = sc.DeployBoot
	bp.SpanSectors = sc.DeployImage / 2 / disk.SectorSize
	ios := deployIOs(seed, sc)
	data := disk.Synth{Seed: inputSeed(seed, "guest-data"), Label: "bench-writes"}

	var res *testbed.BMcastResult
	var ioStart, ioEnd sim.Time
	var ioErr error
	done := false
	tb.K.Spawn("bench.guest", func(p *sim.Proc) {
		defer func() { done = true; tb.K.Stop() }()
		var err error
		if res, err = tb.DeployBMcast(p, n, core.DefaultConfig(), bp); err != nil {
			ioErr = fmt.Errorf("deploy: %w", err)
			return
		}
		ioStart = p.Now()
		for i, io := range ios {
			if io.write {
				err = n.OS.WriteSectors(p, disk.Payload{LBA: io.lba, Count: guestIOSectors, Source: data})
			} else {
				_, err = n.OS.ReadSectors(p, io.lba, guestIOSectors, true)
			}
			if err != nil {
				ioErr = fmt.Errorf("guest I/O %d at LBA %d: %w", i, io.lba, err)
				return
			}
		}
		ioEnd = p.Now()
		tb.WaitBareMetal(p, n, res)
	})
	procs := countProcs(tb)
	r.ready()
	r.simulate(tb.K, sim.Time(1)<<62, func() bool { return done })

	r.verify(func() {
		o := newOutcome()
		o.Ops = 1 + len(ios)
		fp := newFingerprint()
		switch {
		case ioErr != nil:
			o.fail("deploy-rw: %v", ioErr)
		case !done || res == nil || res.BareMetal == 0:
			o.fail("deploy-rw: never reached bare metal")
		default:
			if _, err := tb.VerifyDeployment(n); err != nil {
				o.fail("deploy-rw: %v", err)
			}
			if err := checkEndState(tb, n, ios, data); err != nil {
				o.fail("deploy-rw: %v", err)
			}
		}
		var ready, bare []sim.Duration
		if res != nil {
			ready = append(ready, res.GuestBooted.Sub(0))
			fp.add("deploy %d %d %d %d %d %d", res.FirmwareDone, res.VMMBooted, res.GuestBooted, res.Deployed, res.BareMetal, ioEnd)
			if res.BareMetal != 0 {
				bare = append(bare, res.BareMetal.Sub(0))
			}
		}
		o.modelTimes("model.ready", ready)
		o.modelTimes("model.baremetal", bare)
		if ioEnd > ioStart {
			o.Model["model.guest_io_mbps"] = float64(len(ios)*guestIOSectors*disk.SectorSize) / 1e6 / ioEnd.Sub(ioStart).Seconds()
		}
		o.Model["model.fail_ratio"] = float64(o.Failed) / float64(o.Ops)
		snap := tb.Metrics.Snapshot()
		fp.snapshot(snap)
		fp.content(tb)
		layerCounts(&o, tb.Nodes, snap, procs)
		o.SimSeconds = tb.K.Now().Seconds()
		o.Fingerprint = fp.sum()
		r.out = o
	})
}

// checkEndState checks every extent of the deployed image range: sectors
// the harness wrote hold the harness's data, and every other sector holds
// the image or the guest's own boot-time writes.
func checkEndState(tb *testbed.Testbed, n *testbed.Node, ios []guestIO, data disk.SectorSource) error {
	type span struct{ start, end int64 }
	var written []span
	for _, io := range ios {
		if io.write {
			written = append(written, span{io.lba, io.lba + guestIOSectors})
		}
	}
	sort.Slice(written, func(i, j int) bool { return written[i].start < written[j].start })
	var merged []span
	for _, s := range written {
		if k := len(merged) - 1; k >= 0 && s.start <= merged[k].end {
			if s.end > merged[k].end {
				merged[k].end = s.end
			}
			continue
		}
		merged = append(merged, s)
	}
	image := tb.Image.Sectors
	exts := n.M.Disk.Store().Extents()
	w := 0
	for _, e := range exts {
		if e.Start >= image {
			break
		}
		for lba := e.Start; lba < e.End && lba < image; {
			for w < len(merged) && merged[w].end <= lba {
				w++
			}
			inWrite := w < len(merged) && merged[w].start <= lba
			next := e.End
			switch {
			case inWrite && merged[w].end < next:
				next = merged[w].end
			case !inWrite && w < len(merged) && merged[w].start < next:
				next = merged[w].start
			}
			src := e.Source.Name()
			if inWrite && e.Source != data {
				return fmt.Errorf("guest-written sectors [%d,%d) hold %s, want %s", lba, next, src, data.Name())
			}
			if !inWrite && src != tb.Image.Name() && !strings.HasPrefix(src, "boot-writes") {
				return fmt.Errorf("sectors [%d,%d) hold %s, want the image", lba, next, src)
			}
			lba = next
		}
	}
	return nil
}

// --- elastic-storm ----------------------------------------------------------

// elasticPhase aggregates the requests submitted in one phase of the run.
type elasticPhase struct {
	Name                         string
	Requested, Ready, Shed, Fail int
	ready, bare                  []sim.Duration
}

// elasticRun is one elastic-storm execution, kept whole so the
// cross-check test can compare it with experiments.ElasticityRun.
type elasticRun struct {
	tb      *testbed.Testbed
	c       *cloud.Controller
	f       *cloud.Frontend
	g       *tenants.Generator
	procs   []*procCounts
	storm   faults.StormConfig
	drained bool
	phases  []elasticPhase
}

// runElastic runs the elasticity cell as experiments.ElasticityRun builds
// it: open-loop Poisson tenants against a machine pool behind the
// admission front end, through a storm that partitions a rack and
// crash-loops the storage server. Latency is timed from each request's
// arrival.
func runElastic(r *run, seed int64, sc scale) *elasticRun {
	tcfg := testbed.DefaultConfig()
	tcfg.Seed = elasticModelSeed
	tcfg.ImageSeed = inputSeed(seed, "image")
	tcfg.ImageBytes = sc.ElasticImage
	if min := 2 * tcfg.ImageBytes / disk.SectorSize; tcfg.DiskSectors < min {
		tcfg.DiskSectors = min
	}
	tb := testbed.New(tcfg)
	c := cloud.NewController(tb, tcfg, sc.ElasticPool)
	c.BootProfile.TotalBytes = sc.ElasticBoot
	c.BootProfile.CPUTime = 2 * sim.Second
	c.VMMConfig.WriteInterval = 2 * sim.Millisecond
	c.VMMConfig.StallTimeout = 4 * sim.Second
	c.Retry = cloud.RetryPolicy{
		Budget:      3,
		BaseBackoff: sim.Second,
		MaxBackoff:  8 * sim.Second,
		JitterFrac:  0.2,
		LeaseWait:   20 * sim.Second,
	}
	c.Health = cloud.HealthPolicy{FailThreshold: 2, Probation: 20 * sim.Second}
	for _, n := range tb.Nodes {
		n.M.Firmware.InitTime = 2 * sim.Second
	}
	f := cloud.NewFrontend(c, cloud.AdmissionConfig{QueueLimit: 10, TokenRate: 2, TokenBurst: 4})
	er := &elasticRun{tb: tb, c: c, f: f, storm: sc.ElasticStorm}
	inj := tb.NewFaultInjector()
	if err := inj.Apply(sc.ElasticStorm.Schedule()); err != nil {
		panic(fmt.Sprintf("elastic-storm: storm schedule: %v", err)) // the storm is a constant
	}
	er.g = tenants.NewGenerator(tb.K, f, tb.Metrics, sc.ElasticProfile)
	er.g.Start()
	tb.K.Spawn("elasticity.waiter", func(p *sim.Proc) {
		er.g.WaitDrained(p)
		er.drained = true
		tb.K.Stop()
	})
	er.procs = countProcs(tb)
	r.ready()
	// Horizon guard: the graceful-degradation invariant says the run
	// drains, but a bug must surface as a failed check, not a hang.
	horizon := sim.Time(sc.ElasticProfile.Duration + sim.Hour)
	r.simulate(tb.K, horizon, func() bool { return er.drained })
	er.classify()
	return er
}

// classify buckets requests by submission time into pre-storm, storm,
// drain and recovered phases, as the experiments package does.
func (er *elasticRun) classify() {
	st := er.storm
	bounds := []struct {
		name string
		upto sim.Time
	}{
		{"pre-storm", sim.Time(st.At)},
		{"storm", sim.Time(st.At + st.For)},
		{"drain", sim.Time(st.At + st.For + elasticDrain)},
		{"recovered", sim.Time(1) << 62},
	}
	er.phases = make([]elasticPhase, len(bounds))
	for i, b := range bounds {
		er.phases[i].Name = b.name
	}
	for _, req := range er.f.Requests() {
		i := 0
		for i < len(bounds)-1 && req.SubmittedAt >= bounds[i].upto {
			i++
		}
		ph := &er.phases[i]
		ph.Requested++
		if err := req.Err(); err != nil {
			if errors.Is(err, cloud.ErrShedQueueFull) || errors.Is(err, cloud.ErrShedDeadline) ||
				errors.Is(err, cloud.ErrFrontendClosed) {
				ph.Shed++
			} else {
				ph.Fail++
			}
			continue
		}
		in := req.Instance()
		if in.ReadyAt == 0 {
			ph.Fail++
			continue
		}
		ph.Ready++
		ph.ready = append(ph.ready, in.ReadyAt.Sub(req.SubmittedAt))
		if in.BareMetalAt != 0 {
			ph.bare = append(ph.bare, in.BareMetalAt.Sub(req.SubmittedAt))
		}
	}
}

func (er *elasticRun) report(r *run) {
	r.verify(func() {
		o := newOutcome()
		reqs := er.f.Requests()
		o.Ops = len(reqs)
		if !er.drained {
			o.fail("elastic-storm: traffic never drained by %v", er.tb.K.Now())
		}
		var ready, bare []sim.Duration
		fp := newFingerprint()
		for _, ph := range er.phases {
			ready = append(ready, ph.ready...)
			bare = append(bare, ph.bare...)
			fp.add("phase %s %d %d %d %d %d %d", ph.Name, ph.Requested, ph.Ready, ph.Shed, ph.Fail, ph.ready, ph.bare)
			// Outside the storm and its drain window every request must be
			// served: shedding and failures there are not degradation, they
			// are regressions.
			if (ph.Name == "pre-storm" || ph.Name == "recovered") && ph.Ready != ph.Requested {
				o.fail("elastic-storm: %d of %d %s requests not served", ph.Requested-ph.Ready, ph.Requested, ph.Name)
			}
		}
		pre, rec := er.phases[0], er.phases[len(er.phases)-1]
		if len(pre.bare) == 0 || len(rec.bare) == 0 {
			o.fail("elastic-storm: no bare-metal samples before (%d) or after (%d) the storm", len(pre.bare), len(rec.bare))
		} else if p, q := medianDur(pre.bare), medianDur(rec.bare); q > elasticMaxRecovery*p {
			o.fail("elastic-storm: recovered p50 bare metal %.3fs exceeds %.0f%% of pre-storm %.3fs", q, 100*elasticMaxRecovery, p)
		}
		var waits []float64
		for _, req := range reqs {
			if req.AdmittedAt != 0 {
				waits = append(waits, req.QueueWait().Seconds())
			}
		}
		sort.Float64s(waits)
		o.modelTimes("model.ready", ready)
		o.modelTimes("model.baremetal", bare)
		shed := er.f.ShedQueueFull.Value() + er.f.ShedDeadline.Value()
		served := 0
		for _, ph := range er.phases {
			served += ph.Ready
		}
		if len(reqs) > 0 {
			o.Model["model.fail_ratio"] = float64(len(reqs)-served) / float64(len(reqs))
		}
		o.Counts["cloud.submitted"] = float64(len(reqs))
		o.Counts["cloud.shed"] = float64(shed)
		o.Counts["cloud.redeploys"] = float64(er.c.Redeploys.Value())
		o.Counts["cloud.quarantines"] = float64(er.c.Quarantines.Value())
		o.Counts["cloud.queue_wait_p50"] = median(waits)
		snap := er.tb.Metrics.Snapshot()
		fp.snapshot(snap)
		fp.content(er.tb)
		layerCounts(&o, er.tb.Nodes, snap, er.procs)
		o.SimSeconds = er.tb.K.Now().Seconds()
		o.Fingerprint = fp.sum()
		r.out = o
	})
}

func medianDur(ds []sim.Duration) float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	sort.Float64s(s)
	return median(s)
}

// --- paper-figs -------------------------------------------------------------

// runPaperFigs runs registry figure cells sequentially at sc.FigOpts, each
// with the seed experiments.RunAll would give it, and scores the tables
// against the paper's numbers. The cells build their testbeds internally,
// so this workload reports no layer counts.
func runPaperFigs(r *run, seed int64, sc scale) {
	runners := make([]experiments.Runner, len(sc.Figs))
	for i, id := range sc.Figs {
		rn, ok := experiments.Lookup(id)
		if !ok {
			panic(fmt.Sprintf("paper-figs: unknown cell %q", id)) // sc.Figs is a constant
		}
		runners[i] = rn
	}
	r.ready()
	tables := make([][]*report.Table, len(runners))
	for i, rn := range runners {
		opt := sc.FigOpts
		opt.Seed = experiments.DeriveSeed(seed, rn.ID)
		r.timed("cell "+rn.ID, "simulate", func() { tables[i] = rn.Run(opt) })
	}
	r.verify(func() {
		o := newOutcome()
		o.Ops = len(runners)
		fp := newFingerprint()
		byCell := map[string][]*report.Table{}
		for i, rn := range runners {
			byCell[rn.ID] = tables[i]
			rows := 0
			for _, t := range tables[i] {
				rows += len(t.Rows)
				fp.add("%s", t.String())
				for _, row := range t.Rows {
					if strings.Contains(strings.Join(row, " "), "FAILED") {
						o.fail("%s: %s", rn.ID, strings.Join(row, " "))
					}
				}
			}
			if rows == 0 {
				o.fail("%s: no rows", rn.ID)
			}
		}
		errPct, missing := paperError(byCell)
		for _, m := range missing {
			o.fail("paper-figs: %s", m)
		}
		o.Model["model.paper_err_pct"] = errPct
		o.Model["model.fail_ratio"] = float64(o.Failed) / float64(o.Ops)
		o.modelTimes("model.ready", nil)
		o.modelTimes("model.baremetal", nil)
		layerCounts(&o, nil, metrics.Snapshot{}, nil)
		o.Fingerprint = fp.sum()
		r.out = o
	})
}
