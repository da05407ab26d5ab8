package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// dbRun is one platform's database measurement.
type dbRun struct {
	name       string
	tput       *metrics.Series
	lat        *metrics.Series
	deployedAt sim.Time // de-virtualization instant (BMcast only)
	runStart   sim.Time
}

// Fig5 reproduces the database benchmark (paper Figure 5): a freshly
// launched instance serves YCSB traffic while BMcast streams the OS image
// underneath; throughput and latency shift to bare-metal levels at
// de-virtualization with no interruption. The KVM baseline runs the same
// workload without any deployment cost.
func Fig5(opt Options) []*report.Table {
	var tables []*report.Table
	for _, prof := range []workload.DBProfile{workload.Memcached(), workload.Cassandra()} {
		tables = append(tables, fig5One(opt, prof))
	}
	return tables
}

func fig5One(opt Options, prof workload.DBProfile) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Fig 5 — %s under YCSB (%.0f%% reads)",
			prof.Name, prof.ReadFraction*100),
		Columns: []string{"platform", "phase", "throughput T/s", "vs BM", "latency µs", "vs BM"},
	}

	bm := fig5Steady(opt, platBaremetal, prof)
	kvm := fig5Steady(opt, platKVM, prof)
	bmc := fig5BMcast(opt, prof)

	bmTput, bmLat := bm.tput.Mean(), bm.lat.Mean()
	t.AddRow("Baremetal", "steady", fmt.Sprintf("%.0f", bmTput), "100%", fmt.Sprintf("%.0f", bmLat), "100%")
	t.AddRow("KVM", "steady", fmt.Sprintf("%.0f", kvm.tput.Mean()), pct(kvm.tput.Mean(), bmTput),
		fmt.Sprintf("%.0f", kvm.lat.Mean()), pct(kvm.lat.Mean(), bmLat))

	// BMcast split at de-virtualization.
	depTput := bmc.tput.MeanBetween(bmc.runStart, bmc.deployedAt)
	depLat := bmc.lat.MeanBetween(bmc.runStart, bmc.deployedAt)
	postTput := bmc.tput.MeanBetween(bmc.deployedAt, bmc.deployedAt.Add(sim.Hour))
	postLat := bmc.lat.MeanBetween(bmc.deployedAt, bmc.deployedAt.Add(sim.Hour))
	t.AddRow("BMcast", "deploying", fmt.Sprintf("%.0f", depTput), pct(depTput, bmTput),
		fmt.Sprintf("%.0f", depLat), pct(depLat, bmLat))
	t.AddRow("BMcast", "de-virtualized", fmt.Sprintf("%.0f", postTput), pct(postTput, bmTput),
		fmt.Sprintf("%.0f", postLat), pct(postLat, bmLat))

	t.AddNote("deployment phase lasted %.0f s after workload start (paper: %s)",
		bmc.deployedAt.Sub(bmc.runStart).Seconds(),
		map[string]string{"memcached": "≈960 s", "cassandra": "≈1020 s"}[prof.Name])
	t.AddNote("throughput over time (10 bins): %s", report.SeriesSummary(bmc.tput, 10))
	t.AddNote("latency µs over time (10 bins): %s", report.SeriesSummary(bmc.lat, 10))
	return t
}

// fig5Steady measures the workload on a steady platform.
func fig5Steady(opt Options, pl platform, prof workload.DBProfile) dbRun {
	r := prepare(opt, pl)
	y := workload.NewYCSB(r.os, prof)
	runProc(r.tb, "measure", func(p *sim.Proc) {
		if pl == platBaremetal || pl == platDevirt {
			if err := r.os.Drv.Init(p, nil); err != nil {
				panic(err)
			}
		}
		y.Run(p, opt.DBSeconds)
	})
	return dbRun{name: pl.String(), tput: &y.Throughput, lat: &y.Latency}
}

// fig5BMcast deploys with BMcast and runs the workload from guest boot
// through de-virtualization plus a post-window.
func fig5BMcast(opt Options, prof workload.DBProfile) dbRun {
	tcfg := testbed.DefaultConfig()
	tcfg.Seed = opt.Seed
	tcfg.ImageBytes = opt.ImageBytes
	tb := testbed.New(tcfg)
	n := tb.AddNode(tcfg)
	n.M.Firmware.InitTime = sim.Second

	bp := guest.DefaultBootProfile()
	bp.TotalBytes = 16 << 20
	bp.CPUTime = 2 * sim.Second
	bp.SpanSectors = tcfg.ImageBytes / 2 / 512

	y := workload.NewYCSB(n.OS, prof)
	run := dbRun{name: "BMcast"}
	runProc(tb, "fig5", func(p *sim.Proc) {
		res, err := tb.DeployBMcast(p, n, core.DefaultConfig(), bp)
		if err != nil {
			panic(err)
		}
		run.runStart = p.Now()
		// Run until de-virtualization, then a post-window.
		tb.K.Spawn("ycsb", func(wp *sim.Proc) { y.Run(wp, 4*sim.Hour) })
		tb.WaitBareMetal(p, n, res)
		run.deployedAt = n.VMM.DevirtedAt
		p.Sleep(opt.DBSeconds)
		y.Stop()
	})
	run.tput, run.lat = &y.Throughput, &y.Latency
	return run
}
