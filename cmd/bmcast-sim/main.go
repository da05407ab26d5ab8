// Command bmcast-sim runs one BMcast deployment end to end and prints the
// phase timeline, deployment statistics, and the content-verification
// summary.
//
// Usage:
//
//	bmcast-sim [-image-gb N] [-storage ide|ahci] [-seed S] [-loss P]
//	           [-trace-out FILE] [-metrics] [-metrics-out FILE] [-secondary N]
//	           [-faults SCHEDULE] [-tenants PROFILE [-storm STORM] [-pool N]]
//	           [-shards N] [-cpuprofile FILE] [-memprofile FILE]
//
// -shards N picks the shard executor's partition (DESIGN.md §13); only
// zero versus non-zero matters. At 0 the testbed is one domain; at N >= 1
// it is one domain per node plus a hub, stepped in barrier windows on one
// goroutine. Output — stdout, trace JSON, metrics — is therefore
// byte-identical at every N >= 1 for a given seed; it differs from the one-domain partition at -shards 0,
// whose node-to-hub deliveries are not quantized to a window, so compare
// per-node runs with per-node runs. -cpuprofile and -memprofile write pprof
// profiles of the run (parity with bmcast-experiments).
//
// -trace-out writes a Chrome trace-event JSON file (load it in Perfetto or
// chrome://tracing) with one span per deployment phase, mediated command,
// and AoE round trip. -metrics dumps the full instrument registry;
// -metrics-out writes it as JSON for bmcast-obs and bench tooling.
//
// -faults takes a deterministic fault schedule, e.g.
//
//	bmcast-sim -secondary 1 -faults '5s crash server; 30s loss node0.vmm 0.02'
//
// Targets are "server", "server2"… and "node0.guest"/"node0.vmm"; verbs are
// linkdown, linkup, partition, loss, corrupt, dup, reorder, crash, restart,
// and mediaerr (see DESIGN.md §8 for the grammar). The same seed and the
// same schedule replay the run byte-identically.
//
// -tenants switches to the elastic control-plane mode: open-loop tenant
// traffic (Poisson arrivals with bursts and diurnal modulation) admitted
// through the bounded queue, optionally under a -storm fault storm, e.g.
//
//	bmcast-sim -tenants default -storm default
//	bmcast-sim -tenants 'rate=0.3,dur=2m0s,hold=10s,deadline=30s' \
//	           -storm 'at=30s,for=20s,links=node0.vmm,server=server,crashes=2' -pool 8
//
// Both flags accept "default" for the fixed "elasticity" experiment cell
// scenario (see DESIGN.md §12 for the profile and storm grammars).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/guest"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/tenants"
	"repro/internal/testbed"
)

// runTenants is the -tenants mode: open-loop tenant traffic through the
// elastic control plane, optionally under a -storm fault storm, rendered
// as the same per-phase table as the "elasticity" experiment cell.
func runTenants(seed int64, pool, shards int, profileStr, stormStr string) {
	profile := experiments.ElasticProfile()
	if profileStr != "default" {
		p, err := tenants.Parse(profileStr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-tenants: %v\n", err)
			os.Exit(2)
		}
		profile = p
	}
	var storm faults.StormConfig
	switch stormStr {
	case "":
	case "default":
		storm = experiments.ElasticStorm()
	default:
		s, err := faults.ParseStorm(stormStr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-storm: %v\n", err)
			os.Exit(2)
		}
		storm = s
	}
	opt := experiments.Quick()
	opt.Seed = seed
	opt.Shards = shards
	fmt.Println(experiments.ElasticityTable(opt, pool, profile, storm).String())
}

// profileFlags starts a CPU profile and returns a function that stops it
// and writes the heap profile; either path may be empty.
func profileFlags(cpuprofile, memprofile string) (stop func()) {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
	return func() {
		if cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		if memprofile != "" {
			f, err := os.Create(memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

func main() {
	imageGB := flag.Float64("image-gb", 8, "OS image size in GB")
	storage := flag.String("storage", "ahci", "storage controller: ide or ahci")
	seed := flag.Int64("seed", 1, "simulation seed")
	loss := flag.Float64("loss", 0, "frame loss rate on the node's VMM-side link")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file")
	metricsDump := flag.Bool("metrics", false, "dump the instrument registry after the run")
	metricsOut := flag.String("metrics-out", "", "write the instrument registry as JSON (for bmcast-obs)")
	secondary := flag.Int("secondary", 0, "number of secondary storage servers (AoE failover targets)")
	faultSched := flag.String("faults", "", "deterministic fault schedule, e.g. '5s crash server; 20s restart server'")
	tenantsFlag := flag.String("tenants", "", "elastic control-plane mode: tenant traffic profile, e.g. 'rate=0.25,dur=4m0s,hold=10s,deadline=40s', or 'default'")
	stormFlag := flag.String("storm", "", "fault storm for -tenants mode, e.g. 'at=1m0s,for=30s,links=node0.vmm+node1.vmm,server=server,crashes=2', or 'default'")
	pool := flag.Int("pool", 0, "machine pool size for -tenants mode (0 = cell default)")
	shards := flag.Int("shards", 0, "give every node its own shard domain when N > 0 (0 = one domain; every N >= 1 runs the same schedule)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the run to `file`")
	flag.Parse()

	stopProfiles := profileFlags(*cpuprofile, *memprofile)
	if *tenantsFlag != "" {
		runTenants(*seed, *pool, *shards, *tenantsFlag, *stormFlag)
		stopProfiles()
		return
	}
	if *stormFlag != "" || *pool != 0 {
		fmt.Fprintln(os.Stderr, "-storm and -pool require -tenants")
		os.Exit(2)
	}

	cfg := testbed.DefaultConfig()
	cfg.Seed = *seed
	cfg.Shards = *shards
	cfg.ImageBytes = int64(*imageGB * float64(1<<30))
	cfg.EnableTrace = *traceOut != ""
	switch *storage {
	case "ide":
		cfg.Storage = machine.StorageIDE
	case "ahci":
		cfg.Storage = machine.StorageAHCI
	default:
		fmt.Fprintln(os.Stderr, "storage must be ide or ahci")
		os.Exit(2)
	}

	tb := testbed.New(cfg)
	for i := 0; i < *secondary; i++ {
		tb.AddSecondaryServer(cfg)
	}
	node := tb.AddNode(cfg)
	if *faultSched != "" {
		sched, err := faults.Parse(*faultSched)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-faults: %v\n", err)
			os.Exit(2)
		}
		if err := tb.NewFaultInjector().Apply(sched); err != nil {
			fmt.Fprintf(os.Stderr, "-faults: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("fault schedule: %s\n", sched)
	}
	if *loss > 0 {
		// Inject loss on the node's VMM-side link only: the deployment
		// traffic path, leaving the guest's NIC clean.
		node.VMMLink.SetLossRate(*loss)
		fmt.Printf("injecting %.1f%% frame loss on %s's VMM link\n", *loss*100, node.M.Name)
	}

	done := false
	tb.RunOnNode(node, "deploy", func(p *sim.Proc) {
		res, err := tb.DeployBMcast(p, node, core.DefaultConfig(), guest.DefaultBootProfile())
		if err != nil {
			fmt.Fprintf(os.Stderr, "deployment failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("timeline:\n")
		fmt.Printf("  firmware init      %10v\n", res.FirmwareDone.Sub(0))
		fmt.Printf("  vmm network boot   %10v\n", res.VMMBooted.Sub(res.FirmwareDone))
		fmt.Printf("  guest OS boot      %10v   <- instance usable here\n", res.GuestBooted.Sub(res.VMMBooted))
		tb.WaitBareMetal(p, node, res) // PhaseFailed wakes this too
		if node.VMM.Phase() == core.PhaseFailed {
			fmt.Fprintf(os.Stderr, "deployment failed: %v\n", node.VMM.Err())
			os.Exit(1)
		}
		fmt.Printf("  deployment done    %10v after boot\n", res.Deployed.Sub(res.GuestBooted))
		fmt.Printf("  de-virtualized     %10v after boot\n", res.BareMetal.Sub(res.GuestBooted))

		vmm := node.VMM
		st := vmm.Mediator().Stats()
		fmt.Printf("\nstatistics:\n")
		fmt.Printf("  fetched from server    %8d MB\n", vmm.FetchedBytes.Value()>>20)
		fmt.Printf("  background-copied      %8d MB\n", vmm.CopiedBytes.Value()>>20)
		fmt.Printf("  copy-on-read redirects %8d (%d MB)\n", st.Redirects.Value(), st.RedirectBytes.Value()>>20)
		fmt.Printf("  multiplexed inserts    %8d\n", st.Inserted.Value())
		fmt.Printf("  guest cmds queued      %8d\n", st.QueuedCommands.Value())
		fmt.Printf("  dummy-sector restarts  %8d\n", st.DummyRestarts.Value())
		fmt.Printf("  status polls           %8d\n", st.Polls.Value())
		fmt.Printf("  moderation suspends    %8d\n", vmm.Suspends.Value())
		fmt.Printf("  VM exits               %8d\n", node.M.World.TotalExits())
		fmt.Printf("  AoE retransmits        %8d\n", vmm.Initiator().Retransmits.Value())
		fmt.Printf("  AoE failovers          %8d\n", vmm.Initiator().Failovers.Value())

		counts, err := tb.VerifyDeployment(node)
		if err != nil {
			fmt.Fprintf(os.Stderr, "VERIFICATION FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nverification: every image sector has content; provenance:\n")
		// Sorted names: map iteration order would leak into stdout and
		// break the byte-identity contract.
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-28s %d sectors\n", name, counts[name])
		}
		tb.PostToHub(tb.NodeKernel(node), func() { done = true })
	})
	tb.Set.Run(func() bool { return done })

	if *traceOut != "" {
		tr := tb.TraceMerged()
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nwrote %d spans and %d events to %s (open in Perfetto or chrome://tracing)\n",
			len(tr.Spans()), len(tr.Events()), *traceOut)
	}
	if *metricsDump {
		fmt.Printf("\nmetrics:\n")
		tb.Metrics.Snapshot().WriteText(os.Stdout)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-out: %v\n", err)
			os.Exit(1)
		}
		if err := tb.Metrics.Snapshot().WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-out: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote metrics snapshot to %s\n", *metricsOut)
	}
	stopProfiles()
}
