// Package tenants generates deterministic open-loop tenant traffic for
// the elastic control plane: lease/deploy/release request arrivals drawn
// from a seeded Poisson process with burst and diurnal modulation and
// per-tenant priorities. All randomness comes from the simulation
// kernel's seeded source, so the same seed and profile replay the exact
// same arrival sequence — the property the elasticity experiment's
// determinism test pins.
package tenants

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Profile describes one tenant population's traffic. The arrival process
// is open-loop: arrivals do not slow down when the control plane backs
// up, which is exactly what makes overload shedding observable.
type Profile struct {
	// Rate is the base arrival rate in requests per simulated second.
	Rate float64
	// Duration is how long arrivals are generated.
	Duration sim.Duration
	// Hold is the mean instance hold time (exponentially distributed);
	// tenants release their machine after holding it.
	Hold sim.Duration
	// Deadline, when nonzero, is each request's dispatch deadline
	// relative to submission; past it the front end sheds the request.
	Deadline sim.Duration

	// Burst multiplies the rate by BurstFactor for BurstFor out of every
	// BurstEvery (disabled unless all three are positive).
	BurstEvery  sim.Duration
	BurstFor    sim.Duration
	BurstFactor float64

	// Diurnal modulates the rate by 1 + DiurnalAmp·sin(2πt/Period) —
	// the day/night swing, compressed (disabled unless both positive;
	// DiurnalAmp must stay below 1).
	DiurnalPeriod sim.Duration
	DiurnalAmp    float64

	// PriorityWeights weight the low/normal/high request priorities.
	// All-zero means every request is normal priority.
	PriorityWeights [3]float64
}

// DefaultProfile is a light steady load: 0.2 req/s for 2 minutes, 10 s
// mean hold, 30 s deadlines, no burst or diurnal swing.
func DefaultProfile() Profile {
	return Profile{
		Rate:     0.2,
		Duration: 2 * sim.Minute,
		Hold:     10 * sim.Second,
		Deadline: 30 * sim.Second,
	}
}

// bursting reports whether the burst window is active at offset t from
// the generator start.
func (pr Profile) bursting(t sim.Duration) bool {
	if pr.BurstEvery <= 0 || pr.BurstFor <= 0 || pr.BurstFactor <= 1 {
		return false
	}
	return t%pr.BurstEvery < pr.BurstFor
}

// rateAt is the instantaneous arrival rate at offset t.
func (pr Profile) rateAt(t sim.Duration) float64 {
	r := pr.Rate
	if pr.bursting(t) {
		r *= pr.BurstFactor
	}
	if pr.DiurnalPeriod > 0 && pr.DiurnalAmp > 0 {
		r *= 1 + pr.DiurnalAmp*math.Sin(2*math.Pi*float64(t)/float64(pr.DiurnalPeriod))
	}
	return r
}

// maxRate bounds rateAt over all t — the thinning envelope.
func (pr Profile) maxRate() float64 {
	r := pr.Rate
	if pr.BurstEvery > 0 && pr.BurstFor > 0 && pr.BurstFactor > 1 {
		r *= pr.BurstFactor
	}
	if pr.DiurnalPeriod > 0 && pr.DiurnalAmp > 0 {
		r *= 1 + pr.DiurnalAmp
	}
	return r
}

// String renders the profile in its flag grammar, round-tripping Parse.
func (pr Profile) String() string {
	parts := []string{
		"rate=" + strconv.FormatFloat(pr.Rate, 'g', -1, 64),
		"dur=" + fmtDuration(pr.Duration),
		"hold=" + fmtDuration(pr.Hold),
	}
	if pr.Deadline > 0 {
		parts = append(parts, "deadline="+fmtDuration(pr.Deadline))
	}
	if pr.BurstEvery > 0 || pr.BurstFor > 0 || pr.BurstFactor != 0 {
		parts = append(parts, fmt.Sprintf("burst=%s/%s/%s",
			fmtDuration(pr.BurstEvery), fmtDuration(pr.BurstFor),
			strconv.FormatFloat(pr.BurstFactor, 'g', -1, 64)))
	}
	if pr.DiurnalPeriod > 0 || pr.DiurnalAmp != 0 {
		parts = append(parts, fmt.Sprintf("diurnal=%s/%s",
			fmtDuration(pr.DiurnalPeriod),
			strconv.FormatFloat(pr.DiurnalAmp, 'g', -1, 64)))
	}
	if pr.PriorityWeights != [3]float64{} {
		parts = append(parts, fmt.Sprintf("prio=%s/%s/%s",
			strconv.FormatFloat(pr.PriorityWeights[0], 'g', -1, 64),
			strconv.FormatFloat(pr.PriorityWeights[1], 'g', -1, 64),
			strconv.FormatFloat(pr.PriorityWeights[2], 'g', -1, 64)))
	}
	return strings.Join(parts, ",")
}

func fmtDuration(d sim.Duration) string { return time.Duration(d).String() }

// parseFloat reads a finite number; NaN and infinities are no setting.
func parseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		return 0, fmt.Errorf("%s is not a finite number", s)
	}
	return f, err
}

func parseDuration(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %s", s)
	}
	return sim.Duration(d), nil
}

// Parse reads a profile from its flag grammar: comma-separated key=value
// pairs — rate (req/s), dur, hold, deadline (durations),
// burst=EVERY/FOR/FACTOR, diurnal=PERIOD/AMP, prio=LOW/NORMAL/HIGH
// weights.
func Parse(input string) (Profile, error) {
	var pr Profile
	for _, kv := range strings.Split(input, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Profile{}, fmt.Errorf("tenants: %q: want key=value", kv)
		}
		var err error
		switch k {
		case "rate":
			pr.Rate, err = parseFloat(v)
		case "dur":
			pr.Duration, err = parseDuration(v)
		case "hold":
			pr.Hold, err = parseDuration(v)
		case "deadline":
			pr.Deadline, err = parseDuration(v)
		case "burst":
			f := strings.Split(v, "/")
			if len(f) != 3 {
				return Profile{}, fmt.Errorf("tenants: burst=%q: want EVERY/FOR/FACTOR", v)
			}
			if pr.BurstEvery, err = parseDuration(f[0]); err == nil {
				if pr.BurstFor, err = parseDuration(f[1]); err == nil {
					pr.BurstFactor, err = parseFloat(f[2])
				}
			}
		case "diurnal":
			f := strings.Split(v, "/")
			if len(f) != 2 {
				return Profile{}, fmt.Errorf("tenants: diurnal=%q: want PERIOD/AMP", v)
			}
			if pr.DiurnalPeriod, err = parseDuration(f[0]); err == nil {
				pr.DiurnalAmp, err = parseFloat(f[1])
			}
		case "prio":
			ws := strings.Split(v, "/")
			if len(ws) != 3 {
				return Profile{}, fmt.Errorf("tenants: prio=%q: want LOW/NORMAL/HIGH", v)
			}
			for i, w := range ws {
				if pr.PriorityWeights[i], err = parseFloat(w); err != nil {
					break
				}
				if pr.PriorityWeights[i] < 0 {
					return Profile{}, fmt.Errorf("tenants: prio=%q: negative weight", v)
				}
			}
		default:
			return Profile{}, fmt.Errorf("tenants: unknown key %q", k)
		}
		if err != nil {
			return Profile{}, fmt.Errorf("tenants: %q: %v", kv, err)
		}
	}
	if pr.Rate < 0 {
		return Profile{}, fmt.Errorf("tenants: negative rate")
	}
	if pr.DiurnalAmp < 0 || pr.DiurnalAmp >= 1 {
		if pr.DiurnalAmp != 0 {
			return Profile{}, fmt.Errorf("tenants: diurnal amplitude %g outside [0,1)", pr.DiurnalAmp)
		}
	}
	return pr, nil
}

// Generator runs one tenant population against an admission front end.
type Generator struct {
	k *sim.Kernel
	f *cloud.Frontend
	p Profile

	// Generated counts arrivals; Completed held-and-released leases;
	// Failed deployment failures; Shed admission rejections.
	Generated metrics.Counter
	Completed metrics.Counter
	Failed    metrics.Counter
	Shed      metrics.Counter
	// Active gauges tenants currently in flight (queued, deploying, or
	// holding).
	Active metrics.Gauge

	active  int
	stopped bool
	drained *sim.Signal
}

// NewGenerator builds a generator on kernel k, submitting through f,
// registering its instruments in reg (nil-safe).
func NewGenerator(k *sim.Kernel, f *cloud.Frontend, reg *metrics.Registry, profile Profile) *Generator {
	g := &Generator{
		k:       k,
		f:       f,
		p:       profile,
		drained: k.NewSignal("tenants.drained"),
	}
	reg.RegisterCounter("tenants.generated", &g.Generated)
	reg.RegisterCounter("tenants.completed", &g.Completed)
	reg.RegisterCounter("tenants.failed", &g.Failed)
	reg.RegisterCounter("tenants.shed", &g.Shed)
	reg.RegisterGauge("tenants.active", &g.Active)
	return g
}

// Profile returns the generator's traffic profile.
func (g *Generator) Profile() Profile { return g.p }

// Start spawns the arrival process.
func (g *Generator) Start() {
	g.k.Spawn("tenants.arrivals", g.arrivals)
}

// WaitDrained blocks until arrivals have stopped and every in-flight
// tenant has resolved (completed, failed, or shed).
func (g *Generator) WaitDrained(p *sim.Proc) {
	p.WaitCond(g.drained, func() bool { return g.stopped && g.active == 0 })
}

// arrivals is the open-loop Poisson process: sample inter-arrival gaps at
// the envelope rate from the kernel's seeded source, then thin each
// arrival down to the instantaneous burst/diurnal rate. Thinning keeps
// the draw count per accepted arrival constant, so profiles with the
// same envelope consume the RNG stream identically.
func (g *Generator) arrivals(p *sim.Proc) {
	max := g.p.maxRate()
	if max <= 0 || g.p.Duration <= 0 {
		g.finishArrivals()
		return
	}
	rng := g.k.Rand()
	start := p.Now()
	end := start.Add(g.p.Duration)
	for {
		gap := sim.Duration(rng.ExpFloat64() / max * float64(sim.Second))
		if gap < 1 {
			gap = 1 // never two arrivals in the same instant
		}
		p.Sleep(gap)
		if p.Now() >= end {
			break
		}
		t := p.Now().Sub(start)
		if rng.Float64()*max > g.p.rateAt(t) {
			continue // thinned: outside the burst/diurnal envelope
		}
		prio := g.pickPriority(rng.Float64())
		id := int(g.Generated.Value())
		g.Generated.Inc()
		g.active++
		g.Active.Set(float64(g.active))
		g.k.Spawn(fmt.Sprintf("tenants.tenant.%d", id), func(tp *sim.Proc) {
			g.tenant(tp, prio)
		})
	}
	g.finishArrivals()
}

func (g *Generator) finishArrivals() {
	g.stopped = true
	g.drained.Broadcast()
}

// pickPriority maps one uniform draw through the priority weights.
func (g *Generator) pickPriority(u float64) cloud.Priority {
	w := g.p.PriorityWeights
	total := w[0] + w[1] + w[2]
	if total <= 0 {
		return cloud.PriorityNormal
	}
	u *= total
	if u < w[0] {
		return cloud.PriorityLow
	}
	if u < w[0]+w[1] {
		return cloud.PriorityNormal
	}
	return cloud.PriorityHigh
}

// tenant is one lease lifecycle: submit, wait for the machine, hold it,
// release it. A tenant that is shed or whose deployment fails just goes
// away — open-loop traffic does not retry.
func (g *Generator) tenant(p *sim.Proc, prio cloud.Priority) {
	defer func() {
		g.active--
		g.Active.Set(float64(g.active))
		g.drained.Broadcast()
	}()
	var deadline sim.Time
	if g.p.Deadline > 0 {
		deadline = p.Now().Add(g.p.Deadline)
	}
	req := g.f.Submit(cloud.StrategyBMcast, prio, deadline)
	in, err := req.Wait(p)
	if err != nil {
		g.Shed.Inc()
		return
	}
	c := g.f.Controller()
	if !in.WaitReady(p) {
		g.Failed.Inc()
		// A failed lease still owns its machine until released (unless
		// the controller already reclaimed it).
		_ = c.Release(in)
		return
	}
	// Hold the machine only after the hand-off completes, so release
	// never yanks a machine mid-copy. A post-ready failure (watchdog
	// during the background copy) ends the lease early.
	if !in.WaitBareMetal(p) {
		g.Failed.Inc()
		_ = c.Release(in)
		return
	}
	hold := sim.Duration(g.k.Rand().ExpFloat64() * float64(g.p.Hold))
	if hold > 0 {
		p.Sleep(hold)
	}
	if err := c.Release(in); err == nil {
		g.Completed.Inc()
	} else {
		g.Failed.Inc()
	}
}
