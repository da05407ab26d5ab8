package main

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// The harness builds fleet32 and elastic-storm itself so it can time the
// set-up and every simulated minute. These tests pin that construction to
// the registry's cells: same seed, same simulated outputs, so the
// benchmark measures the model the registry runs.

func TestFleetMatchesRegistryCell(t *testing.T) {
	for _, shards := range []int{0, fleetShardWorkers} {
		const seed = 3
		fr := runFleet(newRun(nil), seed, tinyScale, shards)
		if len(fr.errs) != 0 {
			t.Fatalf("shards=%d: %v", shards, fr.errs)
		}
		opt := experiments.Quick()
		opt.Seed = seed
		opt.ImageBytes = tinyScale.FleetImage
		opt.BootBytes = tinyScale.FleetBoot
		opt.Shards = shards
		want, err := experiments.FleetRun(opt, tinyScale.Fleet, true)
		if err != nil {
			t.Fatal(err)
		}
		got := experiments.FleetResult{
			ReadyP50:  fr.c.TimeToUse.Percentile(50),
			ReadyP99:  fr.c.TimeToUse.Percentile(99),
			Worst:     fr.c.TimeToUse.Max(),
			Elapsed:   fr.elapsed,
			Served:    fr.tb.Server.BytesServed.Value(),
			HitRate:   fr.tb.Server.CacheHitRate(),
			Evictions: fr.tb.Server.CacheEvictions.Value(),
			Snapshot:  fr.tb.Metrics.Snapshot(),
		}
		want.Trace = nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: harness fleet differs from experiments.FleetRun:\n got %+v\nwant %+v", shards, got, want)
		}
	}
}

func TestElasticMatchesRegistryCell(t *testing.T) {
	sc := tinyScale
	er := runElastic(newRun(nil), 1, sc)
	opt := experiments.Quick()
	opt.Seed = elasticModelSeed
	opt.DevirtImageBytes = sc.ElasticImage
	opt.BootBytes = sc.ElasticBoot
	want, err := experiments.ElasticityRun(opt, sc.ElasticPool, sc.ElasticProfile, sc.ElasticStorm)
	if err != nil {
		t.Fatal(err)
	}
	if !er.drained {
		t.Fatal("harness run never drained")
	}
	pct := func(ds []sim.Duration, p float64) sim.Duration {
		var h metrics.Histogram
		for _, d := range ds {
			h.Observe(d)
		}
		return h.Percentile(p)
	}
	got := make([]experiments.ElasticityPhase, len(er.phases))
	for i, ph := range er.phases {
		got[i] = experiments.ElasticityPhase{
			Name: ph.Name, Requested: ph.Requested, Ready: ph.Ready, Shed: ph.Shed, Failed: ph.Fail,
			ReadyP50: pct(ph.ready, 50), ReadyP99: pct(ph.ready, 99),
			BareP50: pct(ph.bare, 50), BareP99: pct(ph.bare, 99),
		}
	}
	if !reflect.DeepEqual(got, want.Phases) {
		t.Errorf("phases differ:\n got %+v\nwant %+v", got, want.Phases)
	}
	if g := er.g.Generated.Value(); g != want.Generated {
		t.Errorf("generated %d, want %d", g, want.Generated)
	}
	if r, q := er.c.Redeploys.Value(), er.c.Quarantines.Value(); r != want.Redeploys || q != want.Quarantines {
		t.Errorf("redeploys/quarantines %d/%d, want %d/%d", r, q, want.Redeploys, want.Quarantines)
	}
	if !reflect.DeepEqual(er.tb.Metrics.Snapshot(), want.Snapshot) {
		t.Error("instrument registry snapshots differ")
	}
}
