package experiments

import (
	"errors"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/faults"
	"repro/internal/hw/disk"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tenants"
	"repro/internal/testbed"
)

// The elasticity cell exercises the paper's headline claim end to end: a
// long-running control plane serving open-loop tenant traffic through a
// fault storm. The scenario is fixed (same seed ⇒ byte-identical report):
// a 12-machine pool, bursty diurnal arrivals for four minutes, and a
// 30-second storm at t=60s that partitions three machines' mediation
// links, crash-loops the storage server, and injects media-error bursts.
// The report slices the run into phases around the storm window so the
// graceful-degradation story — shed, quarantine, recover — is visible as
// data rather than prose.
const (
	elasticPool     = 12
	elasticStormAt  = 60 * sim.Second
	elasticStormFor = 30 * sim.Second
	// elasticDrain is the post-storm window in which backlog and retries
	// are still clearing; after it the plane must be back to normal.
	elasticDrain = 60 * sim.Second
)

// ElasticStorm is the cell's storm: a 3-machine rack partition plus
// server crash/restart cycles and media-error bursts.
func ElasticStorm() faults.StormConfig {
	return faults.StormConfig{
		At:     elasticStormAt,
		For:    elasticStormFor,
		Links:  []string{"node0.vmm", "node1.vmm", "node2.vmm"},
		Server: "server", Crashes: 2,
		MediaErrs: 2, MediaErrLBA: 0, MediaErrCount: 64,
	}
}

// ElasticProfile is the cell's tenant traffic: bursty, diurnally
// modulated, mixed-priority open-loop arrivals spanning the storm.
func ElasticProfile() tenants.Profile {
	return tenants.Profile{
		Rate:     0.25,
		Duration: 4 * sim.Minute,
		Hold:     10 * sim.Second,
		Deadline: 40 * sim.Second,
		// Bursts recur at the storm period, so one lands inside the storm
		// window — peak demand colliding with degraded capacity is the
		// scenario the admission plane exists for.
		BurstEvery: 60 * sim.Second, BurstFor: 12 * sim.Second, BurstFactor: 4,
		DiurnalPeriod: 4 * sim.Minute, DiurnalAmp: 0.3,
		PriorityWeights: [3]float64{1, 2, 1},
	}
}

// ElasticityPhase aggregates one phase of the run (pre-storm, storm,
// drain, recovered), with requests classified by submission time.
type ElasticityPhase struct {
	Name      string
	Requested int
	Ready     int
	Shed      int
	Failed    int
	ReadyP50  sim.Duration
	ReadyP99  sim.Duration
	BareP50   sim.Duration
	BareP99   sim.Duration
}

// ElasticityResult is the cell's aggregate outcome.
type ElasticityResult struct {
	Phases []ElasticityPhase

	Generated        int64
	Completed        int64
	SubmittedReqs    int
	Redeploys        int64
	Quarantines      int64
	Probes           int64
	ShedTotal        int64
	MaxQueueDepth    int
	Pool             int
	FreeAtEnd        int
	QuarantinedAtEnd int

	Storm   faults.StormConfig
	Profile tenants.Profile

	Snapshot metrics.Snapshot
}

// ElasticityRun drives the elastic control plane scenario: tenant traffic
// from profile against a machine pool (pool <= 0 means the cell default),
// with storm applied on the testbed clock. It runs until the traffic
// drains and reports per-phase latency percentiles.
func ElasticityRun(opt Options, pool int, profile tenants.Profile, storm faults.StormConfig) (ElasticityResult, error) {
	if pool <= 0 {
		pool = elasticPool
	}
	tcfg := testbed.DefaultConfig()
	tcfg.Seed = opt.Seed
	tcfg.Shards = opt.Shards
	// The cell's pool shares one gigabit vblade among 12 concurrent
	// background copies, so a large image keeps every machine saturated
	// for minutes; cap it so pre-storm steady state has headroom.
	tcfg.ImageBytes = opt.DevirtImageBytes
	if tcfg.ImageBytes <= 0 || tcfg.ImageBytes > 96<<20 {
		tcfg.ImageBytes = 96 << 20
	}
	if min := 2 * tcfg.ImageBytes / disk.SectorSize; tcfg.DiskSectors < min {
		tcfg.DiskSectors = min
	}
	tb := testbed.New(tcfg)
	c := cloud.NewController(tb, tcfg, pool)
	c.BootProfile.TotalBytes = 16 << 20
	if opt.BootBytes > 0 {
		c.BootProfile.TotalBytes = opt.BootBytes
	}
	c.BootProfile.CPUTime = 2 * sim.Second
	c.VMMConfig.WriteInterval = 2 * sim.Millisecond
	// StallTimeout sits below the storm's 30s partitions and above any
	// congestion stall healthy traffic produces at this scale, so the
	// watchdog only fires on genuinely faulted machines.
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
	inj := tb.NewFaultInjector()
	if err := inj.Apply(storm.Schedule()); err != nil {
		return ElasticityResult{}, fmt.Errorf("elasticity: storm: %w", err)
	}
	g := tenants.NewGenerator(tb.K, f, tb.Metrics, profile)
	g.Start()

	drained := false
	tb.K.Spawn("elasticity.waiter", func(p *sim.Proc) {
		g.WaitDrained(p)
		drained = true
	})
	// Horizon guard: the graceful-degradation invariant says this loop
	// terminates, but a bug must surface as an error, not a hang.
	horizon := sim.Time(profile.Duration + sim.Hour)
	tb.Set.RunUntil(horizon, func() bool { return drained })
	if !drained {
		return ElasticityResult{}, fmt.Errorf("elasticity: traffic never drained (deadlock or runaway backlog): %d requests open at %v",
			openRequests(f), tb.K.Now())
	}

	res := ElasticityResult{
		Generated:        g.Generated.Value(),
		Completed:        g.Completed.Value(),
		SubmittedReqs:    len(f.Requests()),
		Redeploys:        c.Redeploys.Value(),
		Quarantines:      c.Quarantines.Value(),
		Probes:           c.Probes.Value(),
		ShedTotal:        f.ShedQueueFull.Value() + f.ShedDeadline.Value(),
		MaxQueueDepth:    f.MaxQueueDepth,
		Pool:             pool,
		FreeAtEnd:        c.FreeMachines(),
		QuarantinedAtEnd: c.QuarantinedMachines(),
		Storm:            storm,
		Profile:          profile,
		Snapshot:         tb.Metrics.Snapshot(),
	}

	// Phase classification by submission time: pre-storm, the storm
	// window, the drain window, and recovered steady state.
	bounds := []struct {
		name string
		upto sim.Time // exclusive upper bound on SubmittedAt
	}{
		{"pre-storm", sim.Time(storm.At)},
		{"storm", sim.Time(storm.At + storm.For)},
		{"drain", sim.Time(storm.At + storm.For + elasticDrain)},
		{"recovered", sim.Time(1) << 62},
	}
	phases := make([]ElasticityPhase, len(bounds))
	ready := make([]metrics.Histogram, len(bounds))
	bare := make([]metrics.Histogram, len(bounds))
	for i, b := range bounds {
		phases[i].Name = b.name
	}
	for _, r := range f.Requests() {
		i := 0
		for i < len(bounds)-1 && r.SubmittedAt >= bounds[i].upto {
			i++
		}
		ph := &phases[i]
		ph.Requested++
		if err := r.Err(); err != nil {
			if errors.Is(err, cloud.ErrShedQueueFull) || errors.Is(err, cloud.ErrShedDeadline) ||
				errors.Is(err, cloud.ErrFrontendClosed) {
				ph.Shed++
			} else {
				ph.Failed++
			}
			continue
		}
		in := r.Instance()
		if in.ReadyAt != 0 {
			ph.Ready++
			ready[i].Observe(in.ReadyAt.Sub(r.SubmittedAt))
		} else {
			ph.Failed++
			continue
		}
		if in.BareMetalAt != 0 {
			bare[i].Observe(in.BareMetalAt.Sub(r.SubmittedAt))
		}
	}
	for i := range phases {
		phases[i].ReadyP50 = ready[i].Percentile(50)
		phases[i].ReadyP99 = ready[i].Percentile(99)
		phases[i].BareP50 = bare[i].Percentile(50)
		phases[i].BareP99 = bare[i].Percentile(99)
	}
	res.Phases = phases
	return res, nil
}

// openRequests counts submitted requests that never resolved — the
// witness reported when the drain guard trips.
func openRequests(f *cloud.Frontend) int {
	n := 0
	for _, r := range f.Requests() {
		if !r.Done() {
			n++
		}
	}
	return n
}

// ElasticityTable runs the scenario and renders it as a per-phase table.
// Shared by the registry cell and bmcast-sim's -tenants mode.
func ElasticityTable(opt Options, pool int, profile tenants.Profile, storm faults.StormConfig) *report.Table {
	if pool <= 0 {
		pool = elasticPool
	}
	t := &report.Table{
		Title: fmt.Sprintf("Elastic control plane — %d machines, fault storm %v→%v",
			pool, sim.Time(storm.At), sim.Time(storm.At+storm.For)),
		Columns: []string{"phase", "requested", "ready", "shed", "failed",
			"p50 ready", "p99 ready", "p50 baremetal", "p99 baremetal"},
	}
	r, err := ElasticityRun(opt, pool, profile, storm)
	if err != nil {
		t.AddRow("FAILED", "-", "-", "-", "-", "-", "-", "-", fmt.Sprintf("%v", err))
		return t
	}
	for _, ph := range r.Phases {
		t.AddRow(ph.Name, ph.Requested, ph.Ready, ph.Shed, ph.Failed,
			durOrDash(ph.ReadyP50), durOrDash(ph.ReadyP99),
			durOrDash(ph.BareP50), durOrDash(ph.BareP99))
	}
	t.AddNote("storm: %s", r.Storm.String())
	t.AddNote("traffic: %s", r.Profile.String())
	t.AddNote("redeploys=%d quarantines=%d probes=%d shed=%d max queue depth=%d (limit 10)",
		r.Redeploys, r.Quarantines, r.Probes, r.ShedTotal, r.MaxQueueDepth)
	t.AddNote("pool at end: %d free, %d quarantined of %d", r.FreeAtEnd, r.QuarantinedAtEnd, r.Pool)
	return t
}

// Elasticity is the registry cell: the fixed storm scenario rendered as a
// per-phase table.
func Elasticity(opt Options) []*report.Table {
	return []*report.Table{ElasticityTable(opt, elasticPool, ElasticProfile(), ElasticStorm())}
}
