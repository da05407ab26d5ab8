package experiments

import (
	"testing"

	"repro/internal/sim"
)

// tiny returns minimal-scale options so every runner can be smoke-tested.
func tiny() Options {
	return Options{
		Seed:             3,
		ImageBytes:       256 << 20,
		DevirtImageBytes: 64 << 20,
		DBSeconds:        5 * sim.Second,
		MPIIterations:    3,
		RDMAIterations:   20,
		FleetInstances:   4,
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range Registry() {
		ids[r.ID] = true
	}
	for _, want := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "scale", "fleet", "elasticity"} {
		if !ids[want] {
			t.Fatalf("registry missing %s", want)
		}
	}
	if _, ok := Lookup("fig7"); !ok {
		t.Fatal("Lookup(fig7) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup(nope) succeeded")
	}
}

// TestFastFiguresProduceRows smoke-runs the cheap figures at tiny scale
// and checks each emits plausible tables. (Fig 4/5/14/scale run full
// deployments and are exercised by the benchmarks instead.)
func TestFastFiguresProduceRows(t *testing.T) {
	for _, id := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"} {
		id := id
		t.Run(id, func(t *testing.T) {
			r, _ := Lookup(id)
			tables := r.Run(tiny())
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
					t.Fatalf("table %q empty", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Fatalf("table %q row width %d != %d columns", tab.Title, len(row), len(tab.Columns))
					}
				}
			}
		})
	}
}

// TestFig13Ordering pins the paper's qualitative result at tiny scale:
// KVM/Direct pays the IOMMU latency, BMcast does not.
func TestFig13Ordering(t *testing.T) {
	tables := Fig13(tiny())
	rows := tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("fig13 rows = %d", len(rows))
	}
	if rows[3][2] == "+0.0%" {
		t.Fatal("KVM/Direct shows no latency overhead")
	}
	if rows[2][2] != "+0.0%" {
		t.Fatalf("Devirt shows overhead: %v", rows[2])
	}
}

// TestFleetCacheHitRate pins the fleet fast path's core claim at reduced
// scale: instances booting the same image share one working set, so the
// serving cache absorbs all but the first read of each extent.
func TestFleetCacheHitRate(t *testing.T) {
	opt := tiny()
	opt.FleetInstances = 16
	r, err := FleetRun(opt, opt.FleetInstances, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.HitRate <= 0.9 {
		t.Fatalf("fleet cache hit rate = %.4f, want > 0.9", r.HitRate)
	}
	if r.Served == 0 || r.Elapsed <= 0 || r.Worst <= 0 {
		t.Fatalf("implausible fleet result: %+v", r)
	}
}

// TestFleetFiredEvents pins the quick fleet cell's event count (the cell
// RunAll runs at seed 1, serving cache on) below what it was when the
// VMM's polling thread fired an event at every tick: 16,055,496 events,
// 2,979,967 of them ticks that found the rx ring empty. A tick now costs
// an event only when a frame waits (aoe.Initiator.SetPolled).
func TestFleetFiredEvents(t *testing.T) {
	const everyTick, emptyTicks = 16_055_496, 2_979_967
	opt := Quick()
	opt.Seed = DeriveSeed(1, "fleet")
	var fired int64
	opt.fired = func(n int64) { fired = n }
	if _, err := FleetRun(opt, opt.FleetInstances, true); err != nil {
		t.Fatal(err)
	}
	if fired > everyTick-emptyTicks {
		t.Fatalf("quick fleet cell fired %d events, want at most %d (%d less the %d empty ticks)",
			fired, everyTick-emptyTicks, everyTick, emptyTicks)
	}
	t.Logf("quick fleet cell fired %d events", fired)
}

func TestDeterministicRuns(t *testing.T) {
	a := Fig7(tiny())[0].String()
	b := Fig7(tiny())[0].String()
	if a != b {
		t.Fatal("same-seed runs differ")
	}
}
