package testbed

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestShardedChaosDeterminism deploys three nodes on a sharded testbed
// under a fault schedule that crosses shard boundaries — a crash/restart
// cycle on the hub's primary server, a linkdown/linkup window and a loss
// burst on node-domain VMM links — and pins that two same-seed runs of
// the per-node partition are byte-identical. (The name matches the
// `make chaos` -run filter, so this runs under the race detector.)
func TestShardedChaosDeterminism(t *testing.T) {
	run := func() string {
		cfg := small()
		cfg.Shards = 1
		tb := New(cfg)
		tb.AddSecondaryServer(cfg)
		nodes := make([]*Node, 3)
		for i := range nodes {
			nodes[i] = tb.AddNode(cfg)
			nodes[i].M.Firmware.InitTime = sim.Second
		}

		sched, err := faults.Parse(
			"3s crash server; 4s linkdown node1.vmm; 5s loss node0.vmm 0.02; " +
				"8s linkup node1.vmm; 10s loss node0.vmm 0; 12s mediaerr server2 0 64 2s")
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.NewFaultInjector().Apply(sched); err != nil {
			t.Fatal(err)
		}

		type outcome struct {
			Node            string
			ReadyAt, BareAt sim.Time
			Err             string
		}
		outcomes := make([]outcome, len(nodes))
		done := 0
		for i, n := range nodes {
			i, n := i, n
			tb.RunOnNode(n, fmt.Sprintf("deploy%d", i), func(p *sim.Proc) {
				o := outcome{Node: n.M.Name}
				r, err := tb.DeployBMcast(p, n, core.DefaultConfig(), quickBoot(cfg))
				if err != nil {
					o.Err = err.Error()
				} else {
					o.ReadyAt = p.Now()
					tb.WaitBareMetal(p, n, r)
					o.BareAt = p.Now()
				}
				nk := tb.NodeKernel(n)
				tb.PostToHub(nk, func() {
					outcomes[i] = o
					done++
				})
			})
		}
		tb.Set.RunUntil(sim.Time(2*sim.Hour), func() bool { return done == len(nodes) })
		if done != len(nodes) {
			t.Fatalf("%d/%d deployments finished", done, len(nodes))
		}
		for _, o := range outcomes {
			if o.Err != "" {
				t.Fatalf("%s: %s", o.Node, o.Err)
			}
		}

		snap := tb.Metrics.Snapshot()
		if got := snap.CounterValue("faults.injected"); got != 6 {
			t.Fatalf("faults.injected = %v, want 6", got)
		}
		if got := snap.CounterValue("vblade.crashes", metrics.L("node", "server")); got != 1 {
			t.Fatalf("vblade.crashes = %v, want 1", got)
		}

		var fp []byte
		for _, o := range outcomes {
			b, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			fp = append(fp, b...)
			fp = append(fp, '\n')
		}
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return string(append(fp, b...))
	}

	if run() != run() {
		t.Fatal("sharded chaos outcome differs between two same-seed runs")
	}
}
