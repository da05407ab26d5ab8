package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// Fig6 reproduces the MPI benchmark (paper Figure 6): OSU collective
// latencies across a 10-node InfiniBand cluster with every node on bare
// metal, on BMcast (deploying), and on KVM. The paper's result: BMcast is
// nearly indistinguishable from bare metal (Allreduce +22% worst case)
// while KVM reaches 235% on Allgather.
func Fig6(opt Options) []*report.Table {
	const nodes = 10
	const msgBytes = 64 << 10

	run := func(pl platform) map[workload.Collective]sim.Duration {
		tcfg := testbed.DefaultConfig()
		tcfg.Seed = opt.Seed
		tcfg.ImageBytes = opt.DevirtImageBytes
		tb := testbed.New(tcfg)
		var machines []*machine.Machine
		for i := 0; i < nodes; i++ {
			n := tb.AddNode(tcfg)
			n.M.Firmware.InitTime = sim.Second
			machines = append(machines, n.M)
			// Apply the platform's steady-state overheads per node. The
			// BMcast case models all ten nodes mid-deployment: the VMM's
			// CPU share and jitter are active, the HCA untouched.
			switch pl {
			case platDeploy:
				vcfg := core.DefaultConfig()
				n.M.World.EnterVMX()
				n.M.World.Overheads.MemPenalty = vcfg.DeployMemPenalty
				n.M.World.Overheads.CPUTaxStatic = vcfg.CoreTax + 0.05 // copy threads
				n.M.World.Overheads.SchedJitter = vcfg.DeployJitter
			case platKVM:
				kcfg := baseline.DefaultKVMConfig()
				n.M.World.EnterVMX()
				n.M.World.Overheads.MemPenalty = kcfg.MemPenalty
				n.M.World.Overheads.CPUTaxStatic = kcfg.CPUTax
				n.M.World.Overheads.SchedJitter = kcfg.SchedJitter
				n.M.IB.ExtraLatency = kcfg.IBExtraLatency
			}
		}
		cl, err := workload.NewMPICluster(tb.K, machines)
		if err != nil {
			panic(err)
		}
		out := make(map[workload.Collective]sim.Duration)
		runProc(tb, "mpi", func(p *sim.Proc) {
			for _, c := range workload.AllCollectives() {
				out[c] = cl.Latency(p, c, msgBytes, opt.MPIIterations)
			}
		})
		return out
	}

	bm := run(platBaremetal)
	bmc := run(platDeploy)
	kvm := run(platKVM)

	t := &report.Table{
		Title:   fmt.Sprintf("Fig 6 — MPI collective latency (%d nodes, %d KB msgs)", nodes, msgBytes>>10),
		Columns: []string{"collective", "Baremetal µs", "BMcast µs", "BMcast vs BM", "KVM µs", "KVM vs BM"},
	}
	for _, c := range workload.AllCollectives() {
		t.AddRow(c.String(),
			fmt.Sprintf("%.1f", bm[c].Microseconds()),
			fmt.Sprintf("%.1f", bmc[c].Microseconds()),
			pct(float64(bmc[c]), float64(bm[c])),
			fmt.Sprintf("%.1f", kvm[c].Microseconds()),
			pct(float64(kvm[c]), float64(bm[c])))
	}
	t.AddNote("paper: KVM Allgather 235%% of bare metal; Allreduce BMcast +22%%, KVM +35%%")
	t.AddNote("BMcast nodes modeled mid-deployment with the VMM's measured steady overheads")
	return []*report.Table{t}
}
