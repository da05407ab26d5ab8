package testbed

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw/nic"
	"repro/internal/sim"
)

type guestBootProfile = guest.BootProfile

func defaultBoot() guest.BootProfile { return guest.DefaultBootProfile() }

func small() Config {
	cfg := DefaultConfig()
	cfg.ImageBytes = 32 << 20
	cfg.DiskSectors = 1 << 20
	return cfg
}

func TestAssembly(t *testing.T) {
	cfg := small()
	tb := New(cfg)
	n1 := tb.AddNode(cfg)
	n2 := tb.AddNode(cfg)
	if len(tb.Nodes) != 2 || tb.Nodes[0] != n1 || tb.Nodes[1] != n2 {
		t.Fatal("node bookkeeping wrong")
	}
	if len(n1.M.NICs) != 2 {
		t.Fatalf("node has %d NICs, want 2 (guest + VMM)", len(n1.M.NICs))
	}
	if n1.M.NICs[0].MAC == n2.M.NICs[0].MAC {
		t.Fatal("MAC collision between nodes")
	}
	if n1.M.IB == nil {
		t.Fatal("node missing IB HCA")
	}
	// Server link + 2 per node.
	if got := len(tb.Links()); got != 5 {
		t.Fatalf("links = %d, want 5", got)
	}
}

func TestOneDomainPartition(t *testing.T) {
	// Shards=0 is the one-domain ShardSet: the hub kernel runs every node,
	// draws from the testbed seed itself, and keeps the InfiniBand fabric.
	cfg := small()
	cfg.Seed = 5
	tb := New(cfg)
	for i := 0; i < 3; i++ {
		tb.AddNode(cfg)
	}
	if doms := tb.Set.Domains(); len(doms) != 1 || doms[0] != tb.K {
		t.Fatalf("%d domains, want the hub kernel alone", len(doms))
	}
	for i, n := range tb.Nodes {
		if n.M.K != tb.K || tb.NodeKernel(n) != tb.K {
			t.Fatalf("node%d runs off the hub kernel", i)
		}
		if n.M.IB == nil {
			t.Fatalf("node%d has no IB HCA", i)
		}
	}
	if got, want := tb.K.Rand().Int63(), rand.New(rand.NewSource(cfg.Seed)).Int63(); got != want {
		t.Fatalf("hub kernel draws %d, a source seeded with the testbed seed draws %d", got, want)
	}
}

func TestPerNodePartition(t *testing.T) {
	// Shards>0 gives every node its own domain after the hub, off the
	// InfiniBand fabric.
	cfg := small()
	cfg.Shards = 2
	tb := New(cfg)
	for i := 0; i < 3; i++ {
		tb.AddNode(cfg)
	}
	doms := tb.Set.Domains()
	if len(doms) != 1+len(tb.Nodes) || doms[0] != tb.K {
		t.Fatalf("%d domains for %d nodes, want the hub then one per node", len(doms), len(tb.Nodes))
	}
	for i, n := range tb.Nodes {
		if n.M.K != doms[1+i] || n.M.K == tb.K {
			t.Fatalf("node%d is not on its own domain", i)
		}
		if n.M.IB != nil {
			t.Fatalf("node%d has an IB HCA on the per-node partition", i)
		}
	}
}

func TestBootBareMetal(t *testing.T) {
	cfg := small()
	tb := New(cfg)
	n := tb.AddNode(cfg)
	n.M.Firmware.InitTime = sim.Second
	bp := quickBoot(cfg)
	tb.K.Spawn("bm", func(p *sim.Proc) {
		if err := tb.BootBareMetal(p, n, bp); err != nil {
			t.Error(err)
		}
	})
	tb.K.Run()
	if !n.OS.Booted {
		t.Fatal("bare-metal boot failed")
	}
}

func TestServerServesImage(t *testing.T) {
	cfg := small()
	tb := New(cfg)
	if tb.Server.Target(0, 0) == nil {
		t.Fatal("image not exported at 0.0")
	}
	if tb.Image.Size() != cfg.ImageBytes {
		t.Fatalf("image size = %d", tb.Image.Size())
	}
}

// quickBoot shrinks the boot profile to the test image.
func quickBoot(cfg Config) (bp guestBootProfile) {
	b := defaultBoot()
	b.TotalBytes = 4 << 20
	b.CPUTime = sim.Second
	b.SpanSectors = cfg.ImageBytes / 2 / 512
	return b
}

// TestBMcastBurstNeverFloods pins the static forwarding table: every
// station registers its MACs when it connects, so even the first AoE
// burst of a deployment, sent before the server has transmitted anything,
// goes out one port. A flooded frame would reach the other nodes' NICs
// and be counted there as filtered.
func TestBMcastBurstNeverFloods(t *testing.T) {
	cfg := small()
	tb := New(cfg)
	const nodes = 4
	done := 0
	for i := 0; i < nodes; i++ {
		n := tb.AddNode(cfg)
		n.M.Firmware.InitTime = sim.Second
		tb.K.Spawn(fmt.Sprintf("deploy%d", i), func(p *sim.Proc) {
			r, err := tb.DeployBMcast(p, n, core.DefaultConfig(), quickBoot(cfg))
			if err != nil {
				t.Error(err)
				tb.K.Stop()
				return
			}
			tb.WaitBareMetal(p, n, r)
			if done++; done == nodes {
				tb.K.Stop()
			}
		})
	}
	tb.K.Run()
	if done != nodes {
		t.Fatalf("%d of %d deployments reached bare metal", done, nodes)
	}
	nics := []*nic.NIC{tb.ServerNIC}
	for _, n := range tb.Nodes {
		nics = append(nics, n.M.NICs...)
	}
	for _, c := range nics {
		if got := c.Filtered.Value(); got != 0 {
			t.Errorf("%s filtered %d flooded frames, want 0", c.Name, got)
		}
	}
}
