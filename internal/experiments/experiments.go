// Package experiments regenerates every table and figure in the paper's
// evaluation (§5). Each FigN function builds the scenario from scratch —
// machines, network, storage server, platform — runs the measurement, and
// returns report tables whose rows mirror what the paper plots.
//
// Absolute numbers come from the calibrated models; the claims worth
// checking are the comparisons: who wins, by how much, and where the
// crossovers sit. EXPERIMENTS.md records paper-vs-measured for each row.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// Options scale and seed an experiment run.
type Options struct {
	Seed int64
	// ImageBytes is the OS image size (the paper uses 32 GB). Figures
	// that must finish a whole deployment honor DevirtImageBytes
	// instead, so they reach the de-virtualized state quickly.
	ImageBytes       int64
	DevirtImageBytes int64
	// DBSeconds bounds the steady-state database measurement windows.
	DBSeconds sim.Duration
	// MPIIterations / RDMAIterations bound the network microbenchmarks.
	MPIIterations  int
	RDMAIterations int
	// FleetInstances sizes the fleet fast-path cell (<= 0 means 256).
	FleetInstances int
	// EnableTrace records structured spans during the fleet cell so
	// critical-path attribution can be computed; traced runs also wait
	// for every instance to reach bare metal (so all spans close),
	// which at paper scale means copying the whole image per instance —
	// enable it only on reduced-scale runs.
	EnableTrace bool
	// BootBytes overrides the guest boot profile size in the fleet cell
	// (0 = the calibrated default profile).
	BootBytes int64

	// Shards picks the fleet and elasticity cells' partition (DESIGN.md
	// §13); only zero versus non-zero matters. 0 is the one-domain
	// partition; Shards > 0 gives every node its own domain beside a hub,
	// so output is byte-identical at every Shards value ≥ 1. It differs
	// from the one-domain partition, whose node-to-hub deliveries are not
	// quantized to a window, so compare per-node runs with per-node runs.
	Shards int

	// observe, when set, receives each fleet-cell testbed's trace
	// recorder and metrics snapshot as the run finishes. The runner
	// uses it for the open-span leak check and to surface the trace to
	// the CLI's -trace-out / -metrics-out.
	observe func(tr *trace.Recorder, snap metrics.Snapshot)
	// fired, when set, receives the number of events each fleet-cell
	// run fired, summed over its kernels (sim.Kernel.Fired).
	fired func(n int64)
}

// Default returns paper-scale options.
func Default() Options {
	return Options{
		Seed:             1,
		ImageBytes:       32 << 30,
		DevirtImageBytes: 1 << 30,
		DBSeconds:        120 * sim.Second,
		MPIIterations:    100,
		RDMAIterations:   1000,
		FleetInstances:   256,
	}
}

// Quick returns reduced-scale options for benchmarks and smoke tests.
func Quick() Options {
	o := Default()
	o.ImageBytes = 2 << 30
	o.DevirtImageBytes = 256 << 20
	o.DBSeconds = 30 * sim.Second
	o.MPIIterations = 20
	o.RDMAIterations = 200
	o.FleetInstances = 16
	return o
}

// Runner is one registered experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(Options) []*report.Table
}

// Registry lists every figure runner in figure order.
func Registry() []Runner {
	return []Runner{
		{"fig4", "OS startup time (Baremetal, BMcast, Image Copy, NFS Root, KVM/NFS, KVM/iSCSI)", Fig4},
		{"fig5", "memcached and Cassandra throughput/latency through deployment and de-virtualization", Fig5},
		{"fig6", "MPI collective latency on a 10-node cluster", Fig6},
		{"fig7", "kernbench elapsed time", Fig7},
		{"fig8", "SysBench threads (lock-holder preemption)", Fig8},
		{"fig9", "SysBench memory", Fig9},
		{"fig10", "fio storage throughput", Fig10},
		{"fig11", "ioping storage latency", Fig11},
		{"fig12", "InfiniBand RDMA throughput", Fig12},
		{"fig13", "InfiniBand RDMA latency", Fig13},
		{"fig14", "Background-copy moderation sweep", Fig14},
		{"scale", "Scale-up: N simultaneous instances, BMcast vs image copy (§5.1 claim)", Scale},
		{"fleet", "Fleet fast path: 256 instances from one vblade, serving cache on/off", Fleet},
		{"elasticity", "Elastic control plane: tenant traffic through a fault storm (shed/quarantine/recover)", Elasticity},
	}
}

// Lookup finds a runner by ID.
func Lookup(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// platform identifies the system under test for the workload figures.
type platform int

const (
	platBaremetal platform = iota
	platDeploy             // BMcast, deployment in progress
	platDevirt             // BMcast, after de-virtualization
	platKVM                // KVM with virtio storage on the local disk
)

func (pl platform) String() string {
	switch pl {
	case platBaremetal:
		return "Baremetal"
	case platDeploy:
		return "Deploy"
	case platDevirt:
		return "Devirt"
	default:
		return "KVM"
	}
}

// rig is a prepared system under test: a booted platform with an
// initialized block driver, ready to run a workload.
type rig struct {
	tb  *testbed.Testbed
	n   *testbed.Node
	os  *guest.OS
	kvm *baseline.KVM
}

// prepare builds the platform. For platDeploy the background copy is
// running against opt.ImageBytes; for platDevirt a small image is
// deployed to completion first so measurements happen on genuine
// de-virtualized state.
func prepare(opt Options, pl platform) *rig {
	tcfg := testbed.DefaultConfig()
	tcfg.Seed = opt.Seed
	switch pl {
	case platDeploy:
		tcfg.ImageBytes = opt.ImageBytes
	case platDevirt:
		tcfg.ImageBytes = opt.DevirtImageBytes
	default:
		tcfg.ImageBytes = opt.DevirtImageBytes
	}
	tb := testbed.New(tcfg)
	n := tb.AddNode(tcfg)
	n.M.Firmware.InitTime = sim.Second // firmware is irrelevant to workloads
	r := &rig{tb: tb, n: n, os: n.OS}

	bp := guest.DefaultBootProfile()
	bp.TotalBytes = 16 << 20 // abbreviated boot: workloads start warm
	bp.CPUTime = 2 * sim.Second
	bp.SpanSectors = tcfg.ImageBytes / 2 / 512

	switch pl {
	case platBaremetal:
		tb.K.Spawn("prep", func(p *sim.Proc) {
			if err := tb.BootBareMetal(p, n, bp); err != nil {
				panic(fmt.Sprintf("experiments: bare-metal prep: %v", err))
			}
		})
		tb.Set.Run(nil)
	case platDeploy:
		// Stop as soon as the guest is up; the copy continues.
		runProc(tb, "prep", func(p *sim.Proc) {
			if _, err := tb.DeployBMcast(p, n, core.DefaultConfig(), bp); err != nil {
				panic(fmt.Sprintf("experiments: deploy prep: %v", err))
			}
		})
	case platDevirt:
		runProc(tb, "prep", func(p *sim.Proc) {
			vcfg := core.DefaultConfig()
			vcfg.WriteInterval = 2 * sim.Millisecond // finish the small image fast
			res, err := tb.DeployBMcast(p, n, vcfg, bp)
			if err != nil {
				panic(fmt.Sprintf("experiments: devirt prep: %v", err))
			}
			tb.WaitBareMetal(p, n, res)
		})
	case platKVM:
		n.M.SetDiskImage(tb.Image)
		tb.K.Spawn("prep", func(p *sim.Proc) {
			kvm, err := baseline.StartKVM(p, n.M, baseline.DefaultKVMConfig(), baseline.KVMLocal, nil)
			if err != nil {
				panic(fmt.Sprintf("experiments: kvm prep: %v", err))
			}
			r.kvm = kvm
			r.os = kvm.OS
			if err := kvm.OS.Drv.Init(p, nil); err != nil {
				panic(fmt.Sprintf("experiments: kvm driver init: %v", err))
			}
		})
		tb.Set.Run(nil)
	}
	return r
}

// runProc spawns fn as a process named name on tb's hub kernel and runs
// the testbed until fn returns (or nothing is left to run), leaving the
// clock at fn's last event and later events pending, so platforms with
// perpetual background activity still return.
func runProc(tb *testbed.Testbed, name string, fn func(p *sim.Proc)) {
	done := false
	tb.K.Spawn(name, func(p *sim.Proc) {
		fn(p)
		done = true
	})
	tb.Set.Run(func() bool { return done })
}

// pct formats new/base as a percentage string.
func pct(v, base float64) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", (v/base-1)*100)
}

// sortedKeys returns map keys in sorted order (for deterministic tables).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
