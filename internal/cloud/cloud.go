// Package cloud is the provisioning layer the paper motivates: a
// bare-metal cloud controller that leases physical machines on demand.
// It manages a rack of powered-off machines and provisions instances with
// a pluggable deployment strategy, so the agility/elasticity comparison
// (§1, §5.1) can be driven as a workload: request N instances, watch
// time-to-ready, release, re-provision.
package cloud

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/guest"
	"repro/internal/hw/disk"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// ErrAlreadyReleased is the stable error returned when Release is called
// on an instance whose lease has already ended. Callers test for it with
// errors.Is.
var ErrAlreadyReleased = errors.New("instance already released")

// Strategy selects how an instance's OS is deployed.
type Strategy int

// Deployment strategies.
const (
	StrategyBMcast Strategy = iota
	StrategyImageCopy
	StrategyNetboot
)

func (s Strategy) String() string {
	switch s {
	case StrategyBMcast:
		return "bmcast"
	case StrategyImageCopy:
		return "image-copy"
	default:
		return "netboot"
	}
}

// InstanceState is the lifecycle of a lease.
type InstanceState int

// Instance lifecycle states.
const (
	StateRequested InstanceState = iota
	StateDeploying
	StateReady
	StateFailed
	StateReleased
)

func (s InstanceState) String() string {
	return [...]string{"requested", "deploying", "ready", "failed", "released"}[s]
}

// Instance is one bare-metal lease.
type Instance struct {
	ID       int
	Strategy Strategy
	Node     *testbed.Node

	state   InstanceState
	changed *sim.Signal
	err     error
	// reclaimed means the controller already scrubbed the machine and
	// returned it to the pool (pre-ready failures); Release must not
	// return it a second time.
	reclaimed bool

	// Redeploys counts how many times this lease was restarted on a fresh
	// machine after a failed deployment attempt.
	Redeploys int

	RequestedAt sim.Time
	ReadyAt     sim.Time
	// BareMetalAt is when the VMM disappeared (BMcast only).
	BareMetalAt sim.Time
}

// State reports the current lifecycle state.
func (in *Instance) State() InstanceState { return in.state }

// Err reports the deployment error for a failed instance.
func (in *Instance) Err() error { return in.err }

// TimeToReady is the request-to-usable latency — the paper's agility
// metric.
func (in *Instance) TimeToReady() sim.Duration { return in.ReadyAt.Sub(in.RequestedAt) }

// TimeToBareMetal is the request-to-devirtualized latency, the paper's
// end-state metric (0 until the hand-off completes).
func (in *Instance) TimeToBareMetal() sim.Duration {
	if in.BareMetalAt == 0 {
		return 0
	}
	return in.BareMetalAt.Sub(in.RequestedAt)
}

// WaitReady blocks until the instance is usable (or failed), reporting
// success.
func (in *Instance) WaitReady(p *sim.Proc) bool {
	p.WaitCond(in.changed, func() bool { return in.state == StateReady || in.state == StateFailed })
	return in.state == StateReady
}

// WaitBareMetal blocks until the instance's VMM has melted away (or the
// deployment failed), reporting whether bare metal was reached. Tenants
// that release after this point hand back a quiescent machine.
func (in *Instance) WaitBareMetal(p *sim.Proc) bool {
	p.WaitCond(in.changed, func() bool { return in.BareMetalAt != 0 || in.state == StateFailed })
	return in.BareMetalAt != 0
}

// RetryPolicy governs per-lease redeploy attempts: a budget of retries
// and a seeded exponential backoff with jitter between attempts. It
// replaces the flat retry counter the controller started with — the
// backoff spaces retries out so a storm of failing deployments does not
// hammer a recovering storage server in lockstep.
type RetryPolicy struct {
	// Budget caps how many times a failed BMcast deployment is retried
	// on a fresh machine before the instance is marked failed.
	Budget int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it, capped at MaxBackoff. Zero disables backoff.
	BaseBackoff sim.Duration
	MaxBackoff  sim.Duration
	// JitterFrac spreads each backoff uniformly over ±JitterFrac of its
	// value, drawn from the kernel's seeded source, so simultaneous
	// failures do not retry at the same instant.
	JitterFrac float64
	// LeaseWait bounds how long a redeploy may wait for a free machine
	// when the pool is empty at retry time. Zero keeps the original
	// fail-fast behavior; under open-loop tenant load a short wait stops
	// transient pool exhaustion from burning the whole retry budget.
	LeaseWait sim.Duration
}

// DefaultRetryPolicy matches the original controller behavior (one
// retry) plus a short jittered backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Budget:      1,
		BaseBackoff: 500 * sim.Millisecond,
		MaxBackoff:  8 * sim.Second,
		JitterFrac:  0.2,
	}
}

// backoff computes the delay before retry attempt (0-based), drawing
// jitter from rng.
func (rp RetryPolicy) backoff(attempt int, rng *rand.Rand) sim.Duration {
	if rp.BaseBackoff <= 0 {
		return 0
	}
	d := rp.BaseBackoff
	for i := 0; i < attempt && d < rp.MaxBackoff; i++ {
		d *= 2
	}
	if rp.MaxBackoff > 0 && d > rp.MaxBackoff {
		d = rp.MaxBackoff
	}
	if rp.JitterFrac > 0 {
		spread := (2*rng.Float64() - 1) * rp.JitterFrac // uniform in ±JitterFrac
		d = sim.Duration(float64(d) * (1 + spread))
	}
	return d
}

// HealthPolicy governs machine quarantine: a node whose deployments fail
// FailThreshold times in a row is pulled out of the free pool and probed
// after Probation; the probe re-admits it only once its links carry
// traffic again. This stops one flapping machine from consuming the
// retry budget of every lease that happens to land on it.
type HealthPolicy struct {
	// FailThreshold is the consecutive-failure count that trips
	// quarantine. 0 disables quarantine entirely.
	FailThreshold int
	// Probation is how long a quarantined machine sits out before each
	// probe.
	Probation sim.Duration
}

// DefaultHealthPolicy quarantines after 3 consecutive failures with a
// 30-second probation.
func DefaultHealthPolicy() HealthPolicy {
	return HealthPolicy{FailThreshold: 3, Probation: 30 * sim.Second}
}

// Controller provisions instances from a machine pool.
type Controller struct {
	tb   *testbed.Testbed
	tcfg testbed.Config

	VMMConfig   core.Config
	BootProfile guest.BootProfile
	// Remote backs the image-copy and netboot strategies.
	Remote *baseline.RemoteStore

	// Retry is the per-lease redeploy policy (budget + backoff).
	Retry RetryPolicy
	// Health is the machine quarantine policy.
	Health HealthPolicy

	free      []*testbed.Node
	instances []*Instance

	// health tracks consecutive deployment failures per machine;
	// quarantined holds machines pulled from the pool. Both are keyed
	// maps only ever accessed by node — never iterated — so they cannot
	// leak map order into the simulation.
	health      map[*testbed.Node]int
	quarantined map[*testbed.Node]bool

	Requested   metrics.Counter
	Ready       metrics.Counter
	Failures    metrics.Counter
	Redeploys   metrics.Counter
	Quarantines metrics.Counter
	Probes      metrics.Counter
	TimeToUse   metrics.Histogram
	TimeToBare  metrics.Histogram
	// FreePool and Quarantined mirror the pool census as gauges.
	FreePool    metrics.Gauge
	Quarantined metrics.Gauge

	nextID     int
	poolEmpty  int64
	freeSignal *sim.Signal
	// onFree, when set (by the admission frontend), is invoked every
	// time a machine returns to the pool, so the dispatcher can wake.
	onFree func()
}

// NewController racks poolSize machines into tb.
func NewController(tb *testbed.Testbed, tcfg testbed.Config, poolSize int) *Controller {
	c := &Controller{
		tb:          tb,
		tcfg:        tcfg,
		VMMConfig:   core.DefaultConfig(),
		BootProfile: guest.DefaultBootProfile(),
		Remote:      baseline.NewRemoteStore(tb.K, "cloud-store", baseline.ISCSI, tb.Image),
		Retry:       DefaultRetryPolicy(),
		Health:      DefaultHealthPolicy(),
		health:      make(map[*testbed.Node]int),
		quarantined: make(map[*testbed.Node]bool),
		freeSignal:  tb.K.NewSignal("cloud.free"),
	}
	tb.Metrics.RegisterHistogram("cloud.time_to_ready", &c.TimeToUse)
	tb.Metrics.RegisterHistogram("cloud.time_to_baremetal", &c.TimeToBare)
	tb.Metrics.RegisterGauge("cloud.free_pool", &c.FreePool)
	tb.Metrics.RegisterGauge("cloud.quarantined", &c.Quarantined)
	tb.Metrics.RegisterCounter("cloud.quarantines", &c.Quarantines)
	tb.Metrics.RegisterCounter("cloud.probes", &c.Probes)
	c.BootProfile.SpanSectors = tcfg.ImageBytes / 2 / disk.SectorSize
	for i := 0; i < poolSize; i++ {
		c.free = append(c.free, tb.AddNode(tcfg))
	}
	c.FreePool.Set(float64(len(c.free)))
	return c
}

// FreeMachines reports the machines currently unleased.
func (c *Controller) FreeMachines() int { return len(c.free) }

// Instances returns all leases, live and released.
func (c *Controller) Instances() []*Instance {
	out := make([]*Instance, len(c.instances))
	copy(out, c.instances)
	return out
}

// Request leases a machine and starts deployment with the given strategy.
// It returns immediately; use WaitReady on the instance. It fails fast
// when the pool is empty.
func (c *Controller) Request(strategy Strategy) (*Instance, error) {
	node, err := c.lease()
	if err != nil {
		return nil, err
	}
	in := &Instance{
		ID:          c.nextID,
		Strategy:    strategy,
		Node:        node,
		state:       StateRequested,
		changed:     c.tb.K.NewSignal("cloud.instance"),
		RequestedAt: c.tb.K.Now(),
	}
	c.nextID++
	c.instances = append(c.instances, in)
	c.Requested.Inc()
	c.tb.Trace.Emit(node.M.Name, "cloud", "requested", trace.Int("instance", int64(in.ID)))
	c.tb.K.Spawn(fmt.Sprintf("cloud.deploy.%d", in.ID), func(p *sim.Proc) { c.deploy(p, in) })
	return in, nil
}

// lease pops a free machine, failing fast when the pool is empty.
func (c *Controller) lease() (*testbed.Node, error) {
	if len(c.free) == 0 {
		c.poolEmpty++
		return nil, fmt.Errorf("cloud: machine pool exhausted")
	}
	node := c.free[0]
	c.free = c.free[1:]
	c.FreePool.Set(float64(len(c.free)))
	return node, nil
}

// leaseWait leases a machine, parking on the pool signal for up to wait
// if the pool is momentarily empty. wait <= 0 degenerates to lease().
func (c *Controller) leaseWait(p *sim.Proc, wait sim.Duration) (*testbed.Node, error) {
	deadline := p.Now().Add(wait)
	for len(c.free) == 0 && p.Now() < deadline {
		p.WaitTimeout(c.freeSignal, deadline.Sub(p.Now()))
	}
	return c.lease()
}

// repool returns a sanitized machine to the free pool and wakes anything
// waiting on pool capacity (lease waiters, the admission dispatcher).
func (c *Controller) repool(n *testbed.Node) {
	c.free = append(c.free, n)
	c.FreePool.Set(float64(len(c.free)))
	c.freeSignal.Broadcast()
	if c.onFree != nil {
		c.onFree()
	}
}

// noteFailure records a failed deployment against n's health score and
// either quarantines the machine or returns it to the pool.
func (c *Controller) noteFailure(n *testbed.Node) {
	c.health[n]++
	if c.Health.FailThreshold > 0 && c.health[n] >= c.Health.FailThreshold {
		c.quarantine(n)
		return
	}
	c.repool(n)
}

// quarantine pulls n out of circulation and arms the probation probe.
func (c *Controller) quarantine(n *testbed.Node) {
	c.quarantined[n] = true
	c.Quarantines.Inc()
	c.Quarantined.Set(float64(len(c.quarantined)))
	if c.tb.Trace != nil {
		c.tb.Trace.Emit(n.M.Name, "cloud", "quarantine")
	}
	c.tb.K.After(c.Health.Probation, func() { c.probe(n) })
}

// probe decides whether a quarantined machine is fit to serve again. The
// check is deliberately cheap — are the machine's links carrying frames?
// — because the deployment path itself is the real test; probation only
// needs to keep a machine benched while its rack is visibly unhealthy.
// A failed probe re-arms probation.
func (c *Controller) probe(n *testbed.Node) {
	c.Probes.Inc()
	if c.nodeLinksDown(n) {
		c.tb.K.After(c.Health.Probation, func() { c.probe(n) })
		return
	}
	delete(c.quarantined, n)
	c.health[n] = 0
	c.Quarantined.Set(float64(len(c.quarantined)))
	if c.tb.Trace != nil {
		c.tb.Trace.Emit(n.M.Name, "cloud", "readmit")
	}
	c.repool(n)
}

// nodeLinksDown reports whether either of n's links is down. A node on
// the hub kernel is probed live; for a node in its own domain the probe
// reads the hub's fault-schedule mirror instead.
func (c *Controller) nodeLinksDown(n *testbed.Node) bool {
	if n.M.K == c.tb.K {
		return n.GuestLink.Down(ethernet.DirBoth) || n.VMMLink.Down(ethernet.DirBoth)
	}
	return c.tb.NodeLinksDownMirror(c.tb.NodeIndex(n))
}

// runOnNodeWait runs fn as a process on n's shard domain and parks the
// calling hub process until it returns, yielding fn's error. The hub
// never reads node state directly: everything it needs comes back by
// value through the completion post. For a node on the hub kernel it
// simply calls fn inline.
func (c *Controller) runOnNodeWait(p *sim.Proc, n *testbed.Node, name string, fn func(np *sim.Proc) error) error {
	if n.M.K == c.tb.K {
		return fn(p)
	}
	var (
		done bool
		res  error
	)
	sig := c.tb.K.NewSignal(name)
	nk := c.tb.NodeKernel(n)
	c.tb.RunOnNode(n, name, func(np *sim.Proc) {
		err := fn(np)
		c.tb.PostToHub(nk, func() {
			res, done = err, true
			sig.Broadcast()
		})
	})
	for !done {
		p.Wait(sig)
	}
	return res
}

// QuarantinedMachines reports how many machines are currently benched.
func (c *Controller) QuarantinedMachines() int { return len(c.quarantined) }

func (c *Controller) deploy(p *sim.Proc, in *Instance) {
	in.state = StateDeploying
	in.changed.Broadcast()
	if in.Node.M.K != c.tb.K && in.Strategy != StrategyBMcast {
		// The baseline strategies drive node hardware from the control
		// plane's process, which is illegal across shard domains.
		c.fail(in, fmt.Errorf("cloud: strategy %v not supported on a sharded testbed", in.Strategy))
		return
	}
	var err error
	switch in.Strategy {
	case StrategyBMcast:
		c.deployBMcast(p, in)
		return
	case StrategyImageCopy:
		_, err = baseline.DeployImageCopy(p, in.Node.M, in.Node.OS,
			baseline.DefaultImageCopyConfig(), c.Remote, c.BootProfile)
		if err == nil {
			c.markReady(p, in)
			return
		}
	case StrategyNetboot:
		err = baseline.BootNetboot(p, in.Node.M, in.Node.OS, c.Remote, c.BootProfile)
		if err == nil {
			c.markReady(p, in)
			return
		}
	}
	c.fail(in, err)
}

// deployBMcast runs the BMcast strategy with the budgeted-retry redeploy
// policy: an attempt that fails before the instance is handed over has
// its machine scrubbed and health-scored (repooled or quarantined), and
// the lease restarts on a fresh machine after a seeded, jittered backoff,
// up to Retry.Budget times. A failure after hand-over (the watchdog
// firing while the tenant already has the machine) only marks the
// instance failed; the tenant keeps the machine until Release.
func (c *Controller) deployBMcast(p *sim.Proc, in *Instance) {
	var err error
	for attempt := 0; ; attempt++ {
		node := in.Node
		var res *testbed.BMcastResult
		err = c.runOnNodeWait(p, node, "cloud.deploy.node", func(np *sim.Proc) error {
			r, e := c.tb.DeployBMcast(np, node, c.VMMConfig, c.BootProfile)
			if e == nil && node.VMM.Phase() == core.PhaseFailed {
				// The guest "booted" against a dead stream (the mediator
				// tolerates fetch errors); the watchdog is the authority.
				e = node.VMM.Err()
			}
			res = r
			return e
		})
		if err == nil {
			c.markReady(p, in)
			// The instance is already leased out; the copy finishes in
			// the background and the VMM melts away. res stays node-owned:
			// the wait and the phase check both run on the node's domain.
			werr := c.runOnNodeWait(p, node, "cloud.wait.baremetal", func(np *sim.Proc) error {
				c.tb.WaitBareMetal(np, node, res) // PhaseFailed wakes this too
				if node.VMM.Phase() == core.PhaseFailed {
					return node.VMM.Err()
				}
				return nil
			})
			if werr != nil {
				c.fail(in, werr)
				return
			}
			in.BareMetalAt = p.Now()
			c.TimeToBare.Observe(in.TimeToBareMetal())
			if c.tb.Trace != nil {
				c.tb.Trace.Emit(in.Node.M.Name, "cloud", "baremetal",
					trace.Int("instance", int64(in.ID)))
			}
			in.changed.Broadcast() // wake WaitBareMetal
			return
		}
		// Pre-ready failure: scrub the machine; its health score decides
		// whether it goes back to the pool or into quarantine.
		c.reclaim(p, in.Node)
		if attempt >= c.Retry.Budget {
			in.reclaimed = true
			c.fail(in, fmt.Errorf("cloud: instance %d failed after %d deployment attempts: %w",
				in.ID, attempt+1, err))
			return
		}
		if d := c.Retry.backoff(attempt, c.tb.K.Rand()); d > 0 {
			p.Sleep(d)
		}
		node, lerr := c.leaseWait(p, c.Retry.LeaseWait)
		if lerr != nil {
			in.reclaimed = true
			c.fail(in, fmt.Errorf("cloud: instance %d redeploy: %w", in.ID, lerr))
			return
		}
		in.Node = node
		in.Redeploys++
		c.Redeploys.Inc()
	}
}

// reclaim sanitizes a machine whose deployment failed and hands it to
// the health policy, which repools or quarantines it.
func (c *Controller) reclaim(p *sim.Proc, n *testbed.Node) {
	_ = c.runOnNodeWait(p, n, "cloud.reclaim.node", func(np *sim.Proc) error {
		if n.VMM != nil {
			n.VMM.Scrub(np) // drain mediation, detach taps, leave virtualization
		}
		c.scrub(n)
		return nil
	})
	c.noteFailure(n)
}

// scrub sanitizes a machine between leases: blocks return to zero (as a
// provider would wipe between tenants), no VMM, a fresh guest OS.
func (c *Controller) scrub(n *testbed.Node) {
	n.M.Disk.Store().Write(0, n.M.Disk.Sectors, disk.Zero)
	n.VMM = nil
	n.OS = guest.NewOS("ubuntu", n.M)
}

func (c *Controller) fail(in *Instance, err error) {
	in.err = err
	in.state = StateFailed
	c.Failures.Inc()
	if c.tb.Trace != nil {
		c.tb.Trace.Emit(in.Node.M.Name, "cloud", "failed",
			trace.Int("instance", int64(in.ID)))
	}
	in.changed.Broadcast()
}

func (c *Controller) markReady(p *sim.Proc, in *Instance) {
	in.ReadyAt = p.Now()
	in.state = StateReady
	c.health[in.Node] = 0 // a successful deployment clears the failure streak
	c.Ready.Inc()
	c.TimeToUse.Observe(in.TimeToReady())
	if c.tb.Trace != nil {
		c.tb.Trace.Emit(in.Node.M.Name, "cloud", "ready",
			trace.Int("instance", int64(in.ID)))
	}
	in.changed.Broadcast()
}

// Release ends a lease: the disk is wiped (a fresh zero store, as a
// provider would sanitize between tenants) and the machine returns to the
// pool. Failed instances may be released too; if the controller already
// reclaimed the machine (pre-ready failure), releasing is a no-op beyond
// the state change, and for a post-ready failure the sanitization runs
// asynchronously (the dead VMM must first drain and detach).
func (c *Controller) Release(in *Instance) error {
	if in.state == StateReleased {
		return fmt.Errorf("cloud: instance %d: %w", in.ID, ErrAlreadyReleased)
	}
	if in.state != StateReady && in.state != StateFailed {
		return fmt.Errorf("cloud: instance %d is %v, not releasable", in.ID, in.state)
	}
	wasFailed := in.state == StateFailed
	in.state = StateReleased
	in.changed.Broadcast()
	if in.reclaimed {
		return nil // machine already scrubbed and pooled
	}
	if wasFailed {
		node := in.Node
		in.reclaimed = true
		c.tb.K.Spawn(fmt.Sprintf("cloud.reclaim.%d", in.ID), func(p *sim.Proc) {
			c.reclaim(p, node)
		})
		return nil
	}
	if in.Node.M.K == c.tb.K {
		c.scrub(in.Node)
		c.repool(in.Node)
		return nil
	}
	// The wipe runs on the node's domain, and the machine rejoins the
	// pool when the completion post reaches the hub.
	node := in.Node
	nk := c.tb.NodeKernel(node)
	c.tb.RunOnNode(node, "cloud.release.scrub", func(np *sim.Proc) {
		c.scrub(node)
		c.tb.PostToHub(nk, func() { c.repool(node) })
	})
	return nil
}
