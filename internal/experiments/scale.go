package experiments

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// Scale supports the paper's §5.1 elasticity argument: BMcast moves only
// ~90 MB per boot, so many instances can start simultaneously without
// saturating the storage server, while image copy serializes whole-image
// transfers behind the shared link. Not a numbered figure in the paper;
// reported as worst-case time-to-ready per fleet size.
func Scale(opt Options) []*report.Table {
	fleets := []int{1, 2, 4, 8}
	t := &report.Table{
		Title:   "Scale-up — worst time-to-ready for N simultaneous instances",
		Columns: []string{"instances", "BMcast", "BMcast p50", "BMcast p99", "Image Copy", "ratio"},
	}
	for _, n := range fleets {
		bm, bmErr := scaleRun(opt, cloud.StrategyBMcast, n)
		ic, icErr := scaleRun(opt, cloud.StrategyImageCopy, n)
		if bmErr != nil || icErr != nil {
			t.AddRow(n, scaleCell(bm.Worst, bmErr), scaleCell(bm.P50, bmErr), scaleCell(bm.P99, bmErr),
				scaleCell(ic.Worst, icErr), "-")
			continue
		}
		t.AddRow(n, bm.Worst, bm.P50, bm.P99, ic.Worst,
			fmt.Sprintf("%.1fx", float64(ic.Worst)/float64(bm.Worst)))
	}
	t.AddNote("paper §5.1: BMcast's 1.2 MB/s per booting instance leaves room to scale;")
	t.AddNote("image copy saturates the server link and serializes")
	return []*report.Table{t}
}

// scaleCell renders a duration cell, or the failure that replaced it.
func scaleCell(d sim.Duration, err error) string {
	if err != nil {
		return fmt.Sprintf("FAILED (%v)", err)
	}
	return d.String()
}

// scaleResult is one scale run's time-to-ready summary.
type scaleResult struct {
	Worst sim.Duration
	P50   sim.Duration
	P99   sim.Duration
}

// scaleRun deploys fleet simultaneous instances with strategy s and reports
// worst/p50/p99 time-to-ready. A tenant whose provisioning fails does not
// crash the run: the first failure is reported so the row can carry it, and
// the remaining tenants still finish.
func scaleRun(opt Options, s cloud.Strategy, fleet int) (scaleResult, error) {
	tcfg := testbed.DefaultConfig()
	tcfg.Seed = opt.Seed
	tcfg.ImageBytes = opt.ImageBytes
	tb := testbed.New(tcfg)
	c := cloud.NewController(tb, tcfg, fleet)
	for _, n := range tb.Nodes {
		n.M.Firmware.InitTime = 2 * sim.Second
	}
	var res scaleResult
	var firstErr error
	done := 0
	finish := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		done++
	}
	for i := 0; i < fleet; i++ {
		tb.K.Spawn("tenant", func(p *sim.Proc) {
			in, err := c.Request(s)
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
		return scaleResult{}, firstErr
	}
	res.P50 = c.TimeToUse.Percentile(50)
	res.P99 = c.TimeToUse.Percentile(99)
	return res, nil
}
