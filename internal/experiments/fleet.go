package experiments

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// Fleet cache sizing: a 1 GB serving cache in 128 KB extents. The boot
// working set (≈72 MB per the calibrated profile) plus the shared
// background-copy frontier fit comfortably, so with every instance booting
// the same image the first reader of each extent pays the cold-storage read
// and everyone else is served from memory.
const (
	fleetCacheBudget   = 1 << 30
	fleetExtentSectors = 256
)

// Fleet is the fleet-scale fast-path cell: FleetInstances simultaneous
// BMcast deployments stream one image from one vblade, with and without the
// shared-image serving cache. The cache-off row is the original model
// (every read served from an assumed-infinite page cache); the cache-on row
// makes the server's memory budget explicit and must stay close to it by
// keeping the hit rate high — the §5.1 elasticity claim survives only
// because N instances share one working set.
//
// With Options.EnableTrace the run waits for bare metal on every
// instance, the time-to-bare-metal percentile columns fill in, and a
// second table attributes the fleet's time-to-ready to the obs buckets.
func Fleet(opt Options) []*report.Table {
	fleet := opt.FleetInstances
	if fleet <= 0 {
		fleet = 256
	}
	t := &report.Table{
		Title: fmt.Sprintf("Fleet fast path — %d simultaneous instances from one vblade", fleet),
		Columns: []string{"serving cache", "instances", "p50 ready", "p99 ready", "worst ready",
			"p50 baremetal", "p99 baremetal", "served", "throughput", "hit rate", "evictions"},
	}
	var traced *FleetResult
	for _, cached := range []bool{false, true} {
		r, err := FleetRun(opt, fleet, cached)
		label := "off (ideal page cache)"
		if cached {
			label = fmt.Sprintf("%d MB / %d KB extents", fleetCacheBudget>>20, fleetExtentSectors/2)
		}
		if err != nil {
			t.AddRow(label, fleet, "-", "-", fmt.Sprintf("FAILED (%v)", err), "-", "-", "-", "-", "-", "-")
			continue
		}
		if cached && r.Trace != nil {
			rr := r
			traced = &rr
		}
		hitRate := "-"
		evictions := "-"
		if cached {
			hitRate = fmt.Sprintf("%.4f", r.HitRate)
			evictions = fmt.Sprintf("%d", r.Evictions)
		}
		t.AddRow(label, fleet, r.ReadyP50, r.ReadyP99, r.Worst,
			durOrDash(r.BareP50), durOrDash(r.BareP99),
			fmt.Sprintf("%.1f GB", float64(r.Served)/(1<<30)),
			fmt.Sprintf("%.1f MB/s", float64(r.Served)/r.Elapsed.Seconds()/1e6),
			hitRate, evictions)
	}
	t.AddNote("one gigabit vblade serves every instance's boot + background copy;")
	t.AddNote("cache on: only the first reader of an extent pays cold storage")
	tables := []*report.Table{t}
	if traced != nil {
		if at := fleetAttribution(traced); at != nil {
			tables = append(tables, at)
		}
	} else if opt.EnableTrace {
		t.AddNote("tracing requested but no traced run completed; attribution skipped")
	} else {
		t.AddNote("baremetal percentiles need a traced run (-trace-out); untraced cells stop at ready")
	}
	return tables
}

// durOrDash renders a duration cell, dash when the run never measured it.
func durOrDash(d sim.Duration) any {
	if d == 0 {
		return "-"
	}
	return d
}

// fleetAttribution analyzes the traced run's causal DAG into the
// where-did-the-time-go table.
func fleetAttribution(r *FleetResult) *report.Table {
	rep, err := obs.Analyze(r.Trace, r.Snapshot)
	if err != nil || rep.Fleet.Instances == 0 {
		return nil
	}
	var total int64
	for _, b := range rep.Fleet.Buckets {
		total += b.Dur
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Time-to-ready attribution — %d instances, serving cache on", rep.Fleet.Instances),
		Columns: []string{"bucket", "fleet total", "share", "per-instance mean"},
	}
	for _, b := range rep.Fleet.Buckets {
		share := "-"
		if total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(b.Dur)/float64(total))
		}
		t.AddRow(b.Name, sim.Duration(b.Dur), share,
			sim.Duration(b.Dur/int64(rep.Fleet.Instances)))
	}
	if n := len(rep.Anomalies); n > 0 {
		a := rep.Anomalies[0]
		t.AddNote(fmt.Sprintf("%d anomalous instance(s); worst: instance %d +%.1f%% vs median, %.1f%% of delta = %s",
			n, a.ID, a.DeltaPct, a.TopSharePct, a.TopBucket))
	}
	t.AddNote("buckets sum exactly to the fleet's total time-to-ready (see DESIGN.md §10)")
	return t
}

// FleetResult is one fleet deployment's aggregate outcome.
type FleetResult struct {
	Worst    sim.Duration // worst time-to-ready across the fleet
	ReadyP50 sim.Duration
	ReadyP99 sim.Duration
	// BareP50/BareP99/BareWorst are time-to-bare-metal percentiles,
	// measured only when the run waited for the full hand-off (traced
	// runs do; untraced runs stop at ready with copies in flight).
	BareP50   sim.Duration
	BareP99   sim.Duration
	BareWorst sim.Duration
	Elapsed   sim.Duration // start to last instance ready
	Served    int64        // bytes the vblade served
	HitRate   float64
	Evictions int64

	// Trace is the run's recorder (nil unless Options.EnableTrace);
	// Snapshot is the end-of-run instrument registry state.
	Trace    *trace.Recorder
	Snapshot metrics.Snapshot
}

// FleetRun deploys fleet simultaneous BMcast instances against one storage
// server, optionally with the serving cache enabled, and waits until every
// instance is ready — plus, when tracing, until every instance reaches
// bare metal, so the recorded spans all close.
func FleetRun(opt Options, fleet int, cached bool) (FleetResult, error) {
	tcfg := testbed.DefaultConfig()
	tcfg.Seed = opt.Seed
	tcfg.ImageBytes = opt.ImageBytes
	tcfg.EnableTrace = opt.EnableTrace
	tcfg.Shards = opt.Shards
	tb := testbed.New(tcfg)
	if cached {
		tb.Server.EnableCache(fleetCacheBudget, fleetExtentSectors)
	}
	c := cloud.NewController(tb, tcfg, fleet)
	if opt.BootBytes > 0 {
		c.BootProfile.TotalBytes = opt.BootBytes
	}
	for _, n := range tb.Nodes {
		n.M.Firmware.InitTime = 2 * sim.Second
	}
	var res FleetResult
	var firstErr error
	done := 0
	finish := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		done++
		if done == fleet {
			res.Elapsed = tb.K.Now().Sub(0)
		}
	}
	for i := 0; i < fleet; i++ {
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
			if d := in.TimeToReady(); d > res.Worst {
				res.Worst = d
			}
			finish(nil)
		})
	}
	tb.Set.Run(func() bool { return done >= fleet })
	if firstErr != nil {
		return FleetResult{}, firstErr
	}
	if tb.Trace != nil {
		// Attribution needs closed spans: keep the simulation running
		// until the background copies finish and every VMM melts away.
		tb.Set.Run(func() bool { return allBareMetal(c) })
		if !allBareMetal(c) {
			return FleetResult{}, fmt.Errorf("fleet: traced run never reached bare metal on all instances")
		}
		var bm metrics.Histogram
		for _, in := range c.Instances() {
			bm.Observe(in.BareMetalAt.Sub(in.RequestedAt))
		}
		res.BareP50 = bm.Percentile(50)
		res.BareP99 = bm.Percentile(99)
		res.BareWorst = bm.Max()
	}
	res.ReadyP50 = c.TimeToUse.Percentile(50)
	res.ReadyP99 = c.TimeToUse.Percentile(99)
	res.Served = tb.Server.BytesServed.Value()
	res.HitRate = tb.Server.CacheHitRate()
	res.Evictions = tb.Server.CacheEvictions.Value()
	res.Trace = tb.TraceMerged()
	res.Snapshot = tb.Metrics.Snapshot()
	if opt.observe != nil {
		opt.observe(res.Trace, res.Snapshot)
	}
	if opt.fired != nil {
		var n int64
		for _, k := range tb.Set.Domains() {
			n += k.Fired()
		}
		opt.fired(n)
	}
	return res, nil
}

// allBareMetal reports whether every lease finished its hand-off.
func allBareMetal(c *cloud.Controller) bool {
	for _, in := range c.Instances() {
		if in.BareMetalAt == 0 {
			return false
		}
	}
	return true
}
