package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// The sharded determinism pins: two same-seed runs of the per-node
// partition must be byte-identical, because the domain partition, window
// grid and barrier merge order are properties of the model. These tests
// pin that contract for the fleet and elasticity cells, including under a
// fault storm whose events cross shard boundaries (node-link partitions
// mutate node domains while crash/restart hits the hub).

// fleetFingerprint runs the fleet cell on the per-node partition and
// digests everything observable: the result struct, the merged trace
// (spans and events), and the metrics snapshot.
func fleetFingerprint(t *testing.T) string {
	t.Helper()
	opt := Quick()
	opt.ImageBytes = 256 << 20
	opt.BootBytes = 8 << 20
	opt.EnableTrace = true
	opt.Shards = 1
	r, err := FleetRun(opt, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(t, r, r.Trace, r.Snapshot)
}

func fingerprint(t *testing.T, result any, tr *trace.Recorder, snap any) string {
	t.Helper()
	var out []byte
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
		out = append(out, '\n')
	}
	add(result)
	add(snap)
	if tr != nil {
		for _, s := range tr.Spans() {
			add(s)
		}
		for _, e := range tr.Events() {
			add(e)
		}
	}
	return string(out)
}

func TestShardedFleetDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("two traced fleet runs are slow")
	}
	if want, got := fleetFingerprint(t), fleetFingerprint(t); got != want {
		diffLine(t, want, got, "fleet per-node partition, two same-seed runs")
	}
}

// TestShardedElasticityDeterminismMatrix pins byte-identical elasticity
// results — tenant traffic through the storm schedule — across two
// same-seed runs of the per-node partition. The storm partitions three
// node-domain links and crash-loops the hub's storage server, so fault
// events cross shard boundaries. (Name matches the `make elasticity`
// -run filter.)
func TestShardedElasticityDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("two storm runs are slow")
	}
	// A shortened storm cell: the same structure as the registry cell
	// (bursty traffic, a storm that partitions three node domains and
	// crash-loops the hub's server) at a duration that keeps the -race
	// run affordable.
	profile := ElasticProfile()
	profile.Duration = 2 * sim.Minute
	storm := ElasticStorm()
	run := func() string {
		opt := Quick()
		opt.Shards = 1
		r, err := ElasticityRun(opt, 0, profile, storm)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(t, r, nil, r.Snapshot)
	}
	if want, got := run(), run(); got != want {
		diffLine(t, want, got, "elasticity per-node partition, two same-seed runs")
	}
}

// diffLine fails with the first differing line, which names the diverging
// span/metric instead of dumping two multi-megabyte blobs.
func diffLine(t *testing.T, want, got, label string) {
	t.Helper()
	w, g := splitLines(want), splitLines(got)
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			t.Fatalf("%s diverges at line %d:\n  want %.300s\n  got  %.300s", label, i, w[i], g[i])
		}
	}
	t.Fatalf("%s: line counts differ: %d vs %d", label, len(w), len(g))
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// TestShardedFleetSmoke is the fast path of the matrix for -short runs:
// one sharded fleet run must complete and verify.
func TestShardedFleetSmoke(t *testing.T) {
	opt := Quick()
	opt.ImageBytes = 64 << 20
	opt.BootBytes = 4 << 20
	opt.Shards = 4
	r, err := FleetRun(opt, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadyP50 <= 0 {
		t.Fatalf("degenerate ready percentile: %v", r.ReadyP50)
	}
}
