// Package cpuvirt models hardware-assisted CPU virtualization (Intel VT-x /
// AMD-V) at the level BMcast depends on: which events cause VM exits and
// what they cost, nested-paging (EPT) state per CPU, the VMX preemption
// timer used to schedule the VMM's polling threads, and the aggregate
// overheads a virtualization platform imposes on guest execution.
//
// The paper's BMcast traps only PIO/MMIO to the storage controllers,
// startup IPIs/INIT, CR0/CR4 changes, and the unconditional CPUID exits;
// after de-virtualization nothing but CPUID traps, and its cost is
// negligible (§5.5.2). This package gives every platform model a common
// vocabulary to express exactly that.
package cpuvirt

import (
	"fmt"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExitReason classifies VM exits.
type ExitReason int

// Exit reasons relevant to BMcast and the KVM baseline.
const (
	ExitPIO ExitReason = iota
	ExitMMIO
	ExitCPUID
	ExitCR
	ExitStartupIPI
	ExitPreemptionTimer
	ExitExternalInterrupt
	ExitHypercall
	numExitReasons
)

var exitNames = [...]string{
	"pio", "mmio", "cpuid", "cr", "startup-ipi", "preemption-timer",
	"external-interrupt", "hypercall",
}

func (r ExitReason) String() string {
	if int(r) < len(exitNames) {
		return exitNames[r]
	}
	return fmt.Sprintf("exit(%d)", int(r))
}

// Costs gives the round-trip cost of a VM exit per reason: world switch out,
// handler, world switch back. Values follow published VT-x measurements on
// Westmere-class parts (≈1 µs for a trivial handled exit).
type Costs [numExitReasons]sim.Duration

// DefaultCosts returns exit costs for the testbed's Xeon X5680 generation.
func DefaultCosts() Costs {
	var c Costs
	for i := range c {
		c[i] = 1200 * sim.Nanosecond
	}
	c[ExitCPUID] = 800 * sim.Nanosecond
	c[ExitPreemptionTimer] = 900 * sim.Nanosecond
	c[ExitExternalInterrupt] = 2500 * sim.Nanosecond // redelivery via the VMM
	return c
}

// CPU is one logical processor's virtualization state.
type CPU struct {
	ID    int
	VMXOn bool // VMX root mode active (a VMM exists underneath the guest)
	EPTOn bool // nested paging enabled for this CPU
}

// World is the machine-wide virtualization state shared by the VMM, the
// mediators, and the workload models.
type World struct {
	k     *sim.Kernel
	CPUs  []*CPU
	costs Costs

	exitCounts [numExitReasons]int64
	exitTime   sim.Duration // total guest time consumed by exits

	// Instrumentation (see Instrument): per-reason registry counters and
	// cost histograms, plus a trace recorder emitting one vm-exit event
	// per exit. All nil until instrumented; Exit pays one pointer check
	// each when they are.
	node  string
	tr    *trace.Recorder
	exitC *[numExitReasons]*metrics.Counter
	exitH *[numExitReasons]*metrics.Histogram

	// vmmWork accumulates CPU time spent by VMM threads (polling, copy
	// engines); Tax derives the recent fraction of machine CPU it uses.
	vmmWork     sim.Duration
	taxWindowAt sim.Time
	taxPrev     float64

	// Overheads are the platform-imposed execution penalties; see the
	// field docs. Platforms (bare metal, BMcast phases, KVM) set them.
	Overheads Overheads
}

// Overheads are the dials a virtualization platform sets to describe its
// steady-state cost to guest execution. Bare metal is the zero value.
type Overheads struct {
	// MemPenalty is the fractional slowdown of memory-bound work: EPT
	// two-dimensional page walks, TLB pollution, and cache pollution from
	// the VMM/host. 0 = bare metal.
	MemPenalty float64
	// CPUTaxStatic is a fixed CPU fraction consumed by the platform
	// (e.g. KVM host housekeeping); the dynamic VMM-thread tax from
	// RecordVMMWork is added on top.
	CPUTaxStatic float64
	// LHPProb is the probability that a mutex handoff hits a preempted
	// lock holder (the lock-holder preemption problem, paper §5.5.1);
	// LHPStall is the resulting stall.
	LHPProb  float64
	LHPStall sim.Duration
	// IRQLatency is extra per-interrupt delivery latency through the
	// virtualization layer (eliminated by ELI on the KVM baseline for
	// assigned devices, but IOMMU/remapping cost remains).
	IRQLatency sim.Duration
	// VirtIOPathOverhead is the fractional throughput loss of
	// paravirtual I/O devices (virtio) relative to direct access.
	VirtIOPathOverhead float64
	// SchedJitter is the mean scheduling/timer jitter the platform adds
	// to latency-sensitive steps. Collectives amplify it: each step of a
	// synchronized operation waits for the slowest of N nodes, which is
	// how KVM's Allgather reaches 235% of bare metal (§5.3) while
	// BMcast's fine-grained polling stays near zero.
	SchedJitter sim.Duration
	// NetPathLatency is extra one-way latency on the guest's network
	// request path (virtio/vhost queue handoffs); zero with direct
	// hardware access.
	NetPathLatency sim.Duration
}

// Jitter draws one scheduling-jitter sample (exponential with mean
// SchedJitter) from rng. It returns 0 when the platform adds none.
func (o Overheads) Jitter(rng *rand.Rand) sim.Duration {
	if o.SchedJitter <= 0 {
		return 0
	}
	return sim.Duration(rng.ExpFloat64() * float64(o.SchedJitter))
}

// NewWorld returns a bare-metal world with ncpu processors.
func NewWorld(k *sim.Kernel, ncpu int) *World {
	w := &World{k: k, costs: DefaultCosts()}
	for i := 0; i < ncpu; i++ {
		w.CPUs = append(w.CPUs, &CPU{ID: i})
	}
	return w
}

// NCPU reports the number of logical processors.
func (w *World) NCPU() int { return len(w.CPUs) }

// EnterVMX puts every CPU in VMX root mode with nested paging on: the state
// after a VMM boots and starts the guest.
func (w *World) EnterVMX() {
	for _, c := range w.CPUs {
		c.VMXOn = true
		c.EPTOn = true
	}
}

// Virtualized reports whether any CPU still runs under a VMM.
func (w *World) Virtualized() bool {
	for _, c := range w.CPUs {
		if c.VMXOn {
			return true
		}
	}
	return false
}

// NestedPagingOff reports whether every CPU has EPT disabled.
func (w *World) NestedPagingOff() bool {
	for _, c := range w.CPUs {
		if c.EPTOn {
			return false
		}
	}
	return true
}

// Instrument registers per-exit-reason counters ("cpuvirt.exits") and
// cost histograms ("cpuvirt.exit_cost") labeled by node and reason into
// reg, and makes every subsequent Exit emit a "vm-exit" instant event
// on tr (nil tr: no events). Call once per deployment, before traffic.
func (w *World) Instrument(reg *metrics.Registry, tr *trace.Recorder, node string) {
	w.node = node
	w.tr = tr
	var cs [numExitReasons]*metrics.Counter
	var hs [numExitReasons]*metrics.Histogram
	for r := ExitReason(0); r < numExitReasons; r++ {
		cs[r] = reg.Counter("cpuvirt.exits", metrics.L("node", node), metrics.L("exit_reason", r.String()))
		hs[r] = reg.Histogram("cpuvirt.exit_cost", metrics.L("node", node), metrics.L("exit_reason", r.String()))
	}
	w.exitC, w.exitH = &cs, &hs
}

// Exit charges one VM exit of the given reason to the calling guest
// context and stalls it for the exit's cost. When p is nil only
// accounting happens (for exits modeled in aggregate).
func (w *World) Exit(p *sim.Proc, r ExitReason) {
	c := w.Charge(r)
	if p != nil {
		p.Sleep(c)
	}
}

// Charge accounts one VM exit of the given reason and returns its cost:
// how long the guest context that caused it stalls. A caller running as
// kernel callbacks continues after one After of that cost, in the slot a
// stalled process's wakeup would take.
func (w *World) Charge(r ExitReason) sim.Duration {
	w.exitCounts[r]++
	c := w.costs[r]
	w.exitTime += c
	w.RecordVMMWork(c)
	if w.exitC != nil {
		w.exitC[r].Inc()
		w.exitH[r].Observe(c)
	}
	if w.tr != nil {
		w.tr.Emit(w.node, "cpuvirt", "vm-exit", trace.Str("reason", r.String()))
	}
	return c
}

// ExitCount reports how many exits of reason r occurred.
func (w *World) ExitCount(r ExitReason) int64 { return w.exitCounts[r] }

// TotalExits reports all exits across reasons.
func (w *World) TotalExits() int64 {
	var n int64
	for _, c := range w.exitCounts {
		n += c
	}
	return n
}

// RecordVMMWork accounts d of CPU time consumed by VMM threads.
func (w *World) RecordVMMWork(d sim.Duration) {
	const window = sim.Second
	now := w.k.Now()
	for now.Sub(w.taxWindowAt) >= window {
		w.taxPrev = float64(w.vmmWork) / float64(window) / float64(len(w.CPUs))
		w.vmmWork = 0
		w.taxWindowAt = w.taxWindowAt.Add(window)
		if w.taxWindowAt.Add(window) < now { // long idle gap: fast-forward
			w.taxPrev = 0
			w.taxWindowAt = now
		}
	}
	w.vmmWork += d
}

// Tax reports the machine CPU fraction currently consumed by the platform:
// the static platform tax plus VMM-thread work measured over the last
// completed one-second window.
func (w *World) Tax() float64 {
	w.RecordVMMWork(0) // roll the window forward
	return w.Overheads.CPUTaxStatic + w.taxPrev
}

// Slowdown reports the execution-time multiplier for work whose
// memory-bound fraction is memShare (0..1), combining the memory penalty
// and the CPU tax.
func (w *World) Slowdown(memShare float64) float64 {
	s := 1 + w.Overheads.MemPenalty*memShare
	tax := w.Tax()
	if tax > 0.95 {
		tax = 0.95
	}
	return s / (1 - tax)
}

// PreemptionTimer schedules fn to run every interval of guest time, as the
// VMX preemption timer does for BMcast's polling threads. Each fire is a
// VM exit. Stop the timer by calling the returned cancel function. The
// interval can be changed by calling set. When the preemption timer is not
// available, BMcast falls back to soft-timer-style scheduling on interrupt
// exits; that path is modeled by a coarser interval.
type PreemptionTimer struct {
	w        *World
	interval sim.Duration
	fn       func()
	stopped  bool
	event    sim.Handle
}

// StartPreemptionTimer begins firing fn every interval.
func (w *World) StartPreemptionTimer(interval sim.Duration, fn func()) *PreemptionTimer {
	t := &PreemptionTimer{w: w, interval: interval, fn: fn}
	t.arm()
	return t
}

func (t *PreemptionTimer) arm() {
	t.event = t.w.k.After(t.interval, func() {
		if t.stopped {
			return
		}
		t.w.Exit(nil, ExitPreemptionTimer)
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

// SetInterval changes the firing interval from the next arm.
func (t *PreemptionTimer) SetInterval(d sim.Duration) { t.interval = d }

// Interval reports the current firing interval.
func (t *PreemptionTimer) Interval() sim.Duration { return t.interval }

// Stop cancels the timer.
func (t *PreemptionTimer) Stop() {
	t.stopped = true
	t.event.Cancel()
	t.event = sim.Handle{}
}

// Devirtualize performs BMcast's de-virtualization on the CPU side: each
// CPU independently invalidates its TLB and turns nested paging off (no
// IPIs needed because the identity mapping never changed, §3.4), then VMX
// is turned off once every CPU is done. The per-CPU step costs a TLB flush.
// It must be called from a process context.
func (w *World) Devirtualize(p *sim.Proc) {
	const tlbFlush = 2 * sim.Microsecond
	for _, c := range w.CPUs {
		if !c.VMXOn {
			continue
		}
		c.EPTOn = false
		p.Sleep(tlbFlush) // CPUs take turns at their own pace
	}
	if !w.NestedPagingOff() {
		panic("cpuvirt: nested paging still on after per-CPU disable")
	}
	for _, c := range w.CPUs {
		c.VMXOn = false // VMXOFF
	}
}
