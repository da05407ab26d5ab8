package experiments

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig8 reproduces the SysBench thread benchmark (paper Figure 8): 1–24
// threads performing acquire–yield–release over 8 mutexes. Paper: KVM's
// lock-holder preemption reaches +68% at 24 threads; BMcast stays around
// +6% even mid-deployment.
func Fig8(opt Options) []*report.Table {
	threadCounts := []int{1, 2, 4, 8, 12, 16, 20, 24}
	t := &report.Table{
		Title:   "Fig 8 — SysBench threads (8 mutexes, 1000 iterations)",
		Columns: []string{"threads", "Baremetal ms", "Deploy ms", "Deploy vs BM", "KVM ms", "KVM vs BM"},
	}
	results := make(map[platform][]sim.Duration)
	for _, pl := range []platform{platBaremetal, platDeploy, platKVM} {
		r := prepare(opt, pl)
		runProc(r.tb, "measure", func(p *sim.Proc) {
			for _, n := range threadCounts {
				res := workload.SysbenchThreads(p, r.n.M, n)
				results[pl] = append(results[pl], res.Elapsed)
			}
		})
	}
	for i, n := range threadCounts {
		bm := results[platBaremetal][i]
		dep := results[platDeploy][i]
		kvm := results[platKVM][i]
		t.AddRow(n,
			fmt.Sprintf("%.2f", bm.Milliseconds()),
			fmt.Sprintf("%.2f", dep.Milliseconds()), pct(float64(dep), float64(bm)),
			fmt.Sprintf("%.2f", kvm.Milliseconds()), pct(float64(kvm), float64(bm)))
	}
	t.AddNote("paper: KVM +68%% at 24 threads (lock-holder preemption); BMcast +6%%")
	return []*report.Table{t}
}

// Fig9 reproduces the SysBench memory benchmark (paper Figure 9): write
// 1 MB in blocks of 1–16 KB. Paper: KVM +35% at 16 KB blocks (nested
// paging + cache pollution); BMcast ≈+6% during deployment.
func Fig9(opt Options) []*report.Table {
	blockSizes := []int64{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10}
	t := &report.Table{
		Title:   "Fig 9 — SysBench memory (1 MB total per pass)",
		Columns: []string{"block", "Baremetal MB/s", "Deploy MB/s", "Deploy vs BM", "KVM MB/s", "KVM vs BM"},
	}
	results := make(map[platform][]workload.MemoryResult)
	for _, pl := range []platform{platBaremetal, platDeploy, platKVM} {
		r := prepare(opt, pl)
		runProc(r.tb, "measure", func(p *sim.Proc) {
			for _, bs := range blockSizes {
				results[pl] = append(results[pl], workload.SysbenchMemory(p, r.n.M, bs, 1<<20))
			}
		})
	}
	for i, bs := range blockSizes {
		bm := results[platBaremetal][i]
		dep := results[platDeploy][i]
		kvm := results[platKVM][i]
		t.AddRow(fmt.Sprintf("%dK", bs>>10),
			fmt.Sprintf("%.0f", bm.Rate/1e6),
			fmt.Sprintf("%.0f", dep.Rate/1e6), pct(bm.Rate, dep.Rate),
			fmt.Sprintf("%.0f", kvm.Rate/1e6), pct(bm.Rate, kvm.Rate))
	}
	t.AddNote("vs-BM columns show the slowdown of the virtualized platform (positive = slower)")
	t.AddNote("paper: KVM +35%% at 16K blocks; BMcast ≈+6%%")
	return []*report.Table{t}
}
