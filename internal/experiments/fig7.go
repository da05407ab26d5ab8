package experiments

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig7 reproduces the kernel-compile benchmark (paper Figure 7): kernbench
// (`make -j12 allnoconfig`, ≈16 s on bare metal) on the four platforms.
// Paper: Deploy +8%, KVM +3%, Devirt identical to bare metal.
func Fig7(opt Options) []*report.Table {
	t := &report.Table{
		Title:   "Fig 7 — kernbench elapsed time",
		Columns: []string{"platform", "elapsed s", "vs Baremetal"},
	}
	var base sim.Duration
	for _, pl := range []platform{platBaremetal, platDeploy, platDevirt, platKVM} {
		r := prepare(opt, pl)
		var res workload.KernbenchResult
		runProc(r.tb, "measure", func(p *sim.Proc) {
			var err error
			res, err = workload.Kernbench(p, r.os)
			if err != nil {
				panic(err)
			}
		})
		if pl == platBaremetal {
			base = res.Elapsed
		}
		t.AddRow(pl.String(), fmt.Sprintf("%.2f", res.Elapsed.Seconds()), pct(float64(res.Elapsed), float64(base)))
	}
	t.AddNote("paper: Baremetal ≈16 s; Deploy +8%%; KVM +3%%; Devirt = Baremetal")
	return []*report.Table{t}
}
