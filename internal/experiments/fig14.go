package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// Fig14 reproduces the moderation study (paper Figure 14): guest read (a)
// and write (b) throughput against the VMM's background-copy write
// throughput while the VMM write interval sweeps from 1 s down to 1 µs
// and finally full speed. The sum stays below bare metal because the
// guest and VMM write different disk regions, adding seeks — exactly the
// paper's observation.
func Fig14(opt Options) []*report.Table {
	intervals := []sim.Duration{
		sim.Second, 100 * sim.Millisecond, 10 * sim.Millisecond,
		sim.Millisecond, 100 * sim.Microsecond, 10 * sim.Microsecond,
		sim.Microsecond, 0, // 0 = full speed
	}
	var tables []*report.Table
	for _, guestWrites := range []bool{false, true} {
		sub := "a: guest reads"
		if guestWrites {
			sub = "b: guest writes"
		}
		t := &report.Table{
			Title:   "Fig 14" + sub + " vs VMM write interval (1024 KB VMM blocks)",
			Columns: []string{"interval", "guest MB/s", "vmm MB/s", "sum MB/s"},
		}
		// Bare-metal reference: the guest stream alone.
		bmRate := fig14Guest(opt, guestWrites, nil)
		t.AddRow("Baremetal", fmt.Sprintf("%.1f", bmRate/1e6), "-", fmt.Sprintf("%.1f", bmRate/1e6))
		for _, iv := range intervals {
			g, v := fig14Point(opt, guestWrites, iv)
			label := iv.String()
			if iv == 0 {
				label = "Full-speed"
			}
			t.AddRow(label, fmt.Sprintf("%.1f", g/1e6), fmt.Sprintf("%.1f", v/1e6),
				fmt.Sprintf("%.1f", (g+v)/1e6))
		}
		t.AddNote("paper: guest throughput falls and VMM throughput rises as the interval shrinks;")
		t.AddNote("the sum stays below bare metal due to seeks between guest and VMM regions")
		tables = append(tables, t)
	}
	return tables
}

// fig14Guest measures the guest stream alone on bare metal.
func fig14Guest(opt Options, writes bool, _ any) float64 {
	r := prepare(opt, platBaremetal)
	var rate float64
	runProc(r.tb, "measure", func(p *sim.Proc) {
		if err := r.os.Drv.Init(p, nil); err != nil {
			panic(err)
		}
		res, err := workload.Fio(p, r.os, writes, 200<<20, 1<<20, fioRegionLBA)
		if err != nil {
			panic(err)
		}
		rate = res.Throughput
	})
	return rate
}

// fig14Point measures one sweep point: guest stream + background copy at
// the given interval with moderation's frequency threshold disabled (the
// paper controls the interval directly here).
func fig14Point(opt Options, guestWrites bool, interval sim.Duration) (guestRate, vmmRate float64) {
	tcfg := testbed.DefaultConfig()
	tcfg.Seed = opt.Seed
	tcfg.ImageBytes = opt.ImageBytes
	tb := testbed.New(tcfg)
	n := tb.AddNode(tcfg)
	n.M.Firmware.InitTime = sim.Second

	vcfg := core.DefaultConfig()
	vcfg.WriteInterval = interval
	vcfg.GuestIOFreqThreshold = 1e12 // moderation threshold out of the way

	bp := guest.DefaultBootProfile()
	bp.TotalBytes = 8 << 20
	bp.CPUTime = sim.Second
	bp.SpanSectors = tcfg.ImageBytes / 2 / 512

	runProc(tb, "fig14", func(p *sim.Proc) {
		if _, err := tb.DeployBMcast(p, n, vcfg, bp); err != nil {
			panic(err)
		}
		// Lay the guest file out, then measure a 200 MB stream while the
		// copy runs at the configured pace.
		if !guestWrites {
			if _, err := workload.Fio(p, n.OS, true, 200<<20, 1<<20, fioRegionLBA); err != nil {
				panic(err)
			}
		}
		copiedBefore := n.VMM.CopiedBytes.Value()
		start := p.Now()
		res, err := workload.Fio(p, n.OS, guestWrites, 200<<20, 1<<20, fioRegionLBA)
		if err != nil {
			panic(err)
		}
		window := p.Now().Sub(start)
		guestRate = res.Throughput
		vmmRate = float64(n.VMM.CopiedBytes.Value()-copiedBefore) / window.Seconds()
	})
	return guestRate, vmmRate
}
