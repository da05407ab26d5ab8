package workload_test

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/hw/ib"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

func bareMachine(seed int64) (*sim.Kernel, *machine.Machine, *guest.OS) {
	k := sim.New(seed)
	cfg := machine.RX200S6("m0")
	cfg.MemBytes = 512 << 20
	m := machine.New(k, cfg)
	o := guest.NewOS("ubuntu", m)
	return k, m, o
}

func TestFioBareMetalRates(t *testing.T) {
	k, _, o := bareMachine(1)
	var read, write workload.FioResult
	k.Spawn("fio", func(p *sim.Proc) {
		if err := o.Drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		var err error
		read, err = workload.Fio(p, o, false, 200<<20, 1<<20, 0)
		if err != nil {
			t.Error(err)
			return
		}
		write, err = workload.Fio(p, o, true, 200<<20, 1<<20, 1<<20)
		if err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if r := read.Throughput / 1e6; r < 112 || r > 120 {
		t.Fatalf("bare-metal fio read = %.1f MB/s, want ~116.6", r)
	}
	if w := write.Throughput / 1e6; w < 107 || w > 115 {
		t.Fatalf("bare-metal fio write = %.1f MB/s, want ~111.9", w)
	}
}

func TestIopingBareMetal(t *testing.T) {
	k, _, o := bareMachine(1)
	var res workload.IopingResult
	k.Spawn("ioping", func(p *sim.Proc) {
		if err := o.Drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		var err error
		res, err = workload.Ioping(p, o, 100, 4096, 100*sim.Millisecond, 4096)
		if err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if res.Requests != 100 {
		t.Fatalf("requests = %d", res.Requests)
	}
	// Random 4 KB reads within 1 MB: seek-dominated, single-digit ms.
	if res.Mean < sim.Millisecond || res.Mean > 20*sim.Millisecond {
		t.Fatalf("ioping mean = %v, want a few ms", res.Mean)
	}
}

func TestKernbenchBareMetal(t *testing.T) {
	k, _, o := bareMachine(1)
	var res workload.KernbenchResult
	k.Spawn("kb", func(p *sim.Proc) {
		if err := o.Drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		var err error
		res, err = workload.Kernbench(p, o)
		if err != nil {
			t.Error(err)
		}
	})
	k.Run()
	got := res.Elapsed.Seconds()
	if got < 14.5 || got > 18 {
		t.Fatalf("bare-metal kernbench = %.1fs, want ~16", got)
	}
}

func TestSysbenchThreadsScaling(t *testing.T) {
	k, m, _ := bareMachine(1)
	var t1, t24 workload.ThreadsResult
	k.Spawn("sb", func(p *sim.Proc) {
		t1 = workload.SysbenchThreads(p, m, 1)
		t24 = workload.SysbenchThreads(p, m, 24)
	})
	k.Run()
	if t24.Elapsed <= t1.Elapsed {
		t.Fatalf("24 threads (%v) not slower than 1 (%v): no contention", t24.Elapsed, t1.Elapsed)
	}
}

func TestSysbenchThreadsLHP(t *testing.T) {
	elapsed := func(lhp bool) sim.Duration {
		k, m, _ := bareMachine(1)
		if lhp {
			m.World.Overheads.LHPProb = 5e-5
			m.World.Overheads.LHPStall = 1500 * sim.Microsecond
		}
		var r workload.ThreadsResult
		k.Spawn("sb", func(p *sim.Proc) { r = workload.SysbenchThreads(p, m, 24) })
		k.Run()
		return r.Elapsed
	}
	bm, kvm := elapsed(false), elapsed(true)
	ratio := float64(kvm) / float64(bm)
	if ratio < 1.35 || ratio > 1.8 {
		t.Fatalf("LHP overhead ratio = %.2f, want ~1.68", ratio)
	}
	t.Logf("LHP overhead at 24 threads: %.0f%%", (ratio-1)*100)
}

func TestSysbenchMemoryPenalty(t *testing.T) {
	k, m, _ := bareMachine(1)
	var bm, virt workload.MemoryResult
	k.Spawn("sb", func(p *sim.Proc) {
		bm = workload.SysbenchMemory(p, m, 16<<10, 1<<20)
		m.World.Overheads.MemPenalty = 0.42
		virt = workload.SysbenchMemory(p, m, 16<<10, 1<<20)
	})
	k.Run()
	ratio := bm.Rate / virt.Rate
	if ratio < 1.3 || ratio > 1.5 {
		t.Fatalf("memory penalty ratio at 16K = %.2f, want ~1.42", ratio)
	}
	// Smaller blocks: allocation overhead dilutes the memory penalty.
	k2 := sim.New(2)
	m2 := machine.New(k2, machine.RX200S6("m2"))
	var bm1k, virt1k workload.MemoryResult
	k2.Spawn("sb", func(p *sim.Proc) {
		bm1k = workload.SysbenchMemory(p, m2, 1<<10, 1<<20)
		m2.World.Overheads.MemPenalty = 0.35
		virt1k = workload.SysbenchMemory(p, m2, 1<<10, 1<<20)
	})
	k2.Run()
	if r1k := bm1k.Rate / virt1k.Rate; r1k >= ratio {
		t.Fatalf("1K penalty %.2f not smaller than 16K penalty %.2f", r1k, ratio)
	}
}

func TestYCSBMemcachedBareMetal(t *testing.T) {
	k, _, o := bareMachine(1)
	y := workload.NewYCSB(o, workload.Memcached())
	k.Spawn("ycsb", func(p *sim.Proc) {
		if err := o.Drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		y.Run(p, 30*sim.Second)
	})
	k.Run()
	tput := y.Throughput.Mean()
	if tput < 35000 || tput > 38000 {
		t.Fatalf("bare-metal memcached = %.0f T/s, want ~36500", tput)
	}
	lat := y.Latency.Mean()
	if lat < 260 || lat > 285 {
		t.Fatalf("bare-metal memcached latency = %.0f µs, want ~271", lat)
	}
}

func TestYCSBCassandraWritesDisk(t *testing.T) {
	k, m, o := bareMachine(1)
	y := workload.NewYCSB(o, workload.Cassandra())
	k.Spawn("ycsb", func(p *sim.Proc) {
		if err := o.Drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		y.Run(p, 30*sim.Second)
	})
	k.Run()
	if m.Disk.BytesWritten.Value() < 50<<20 {
		t.Fatalf("cassandra wrote only %d bytes in 30s", m.Disk.BytesWritten.Value())
	}
	if tput := y.Throughput.Mean(); tput < 55000 || tput > 63000 {
		t.Fatalf("bare-metal cassandra = %.0f T/s, want ~60000", tput)
	}
}

func TestMPICollectivesBareMetal(t *testing.T) {
	k := sim.New(1)
	fabric := ib.QDR4X(k)
	var machines []*machine.Machine
	for i := 0; i < 10; i++ {
		cfg := machine.RX200S6("n")
		cfg.MemBytes = 256 << 20
		m := machine.New(k, cfg)
		m.AttachIB(fabric)
		machines = append(machines, m)
	}
	cl, err := workload.NewMPICluster(k, machines)
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[workload.Collective]sim.Duration)
	k.Spawn("mpi", func(p *sim.Proc) {
		for _, c := range workload.AllCollectives() {
			results[c] = cl.Latency(p, c, 16<<10, 20)
		}
	})
	k.Run()
	// Allgather (9 ring steps) must cost more than Allreduce (4 rounds).
	if results[workload.Allgather] <= results[workload.Allreduce] {
		t.Fatalf("Allgather %v not slower than Allreduce %v",
			results[workload.Allgather], results[workload.Allreduce])
	}
	for c, d := range results {
		if d <= 0 {
			t.Fatalf("%v latency is zero", c)
		}
	}
}

func TestMPIJitterAmplification(t *testing.T) {
	run := func(jitter sim.Duration) sim.Duration {
		k := sim.New(5)
		fabric := ib.QDR4X(k)
		var machines []*machine.Machine
		for i := 0; i < 10; i++ {
			cfg := machine.RX200S6("n")
			cfg.MemBytes = 256 << 20
			m := machine.New(k, cfg)
			m.AttachIB(fabric)
			m.World.Overheads.SchedJitter = jitter
			machines = append(machines, m)
		}
		cl, _ := workload.NewMPICluster(k, machines)
		var d sim.Duration
		k.Spawn("mpi", func(p *sim.Proc) { d = cl.Latency(p, workload.Allgather, 16<<10, 50) })
		k.Run()
		return d
	}
	bm := run(0)
	kvm := run(20 * sim.Microsecond)
	ratio := float64(kvm) / float64(bm)
	if ratio < 1.5 {
		t.Fatalf("Allgather under jitter = %.2fx bare metal, want large amplification (~2.35)", ratio)
	}
	t.Logf("Allgather jitter amplification: %.2fx", ratio)
}

func TestRDMABandwidthSaturates(t *testing.T) {
	k := sim.New(1)
	fabric := ib.QDR4X(k)
	a, b := fabric.NewHCA("a"), fabric.NewHCA("b")
	var res workload.RDMABwResult
	k.Spawn("bw", func(p *sim.Proc) {
		res = workload.RDMABandwidth(p, a, b, 64<<10, 1000, 16)
	})
	k.Run()
	if gbps := res.Throughput / 1e9; gbps < 3.0 || gbps > 3.3 {
		t.Fatalf("RDMA bw = %.2f GB/s, want ~3.2 (saturated)", gbps)
	}
}

func TestRDMALatencyExtraCost(t *testing.T) {
	measure := func(extra sim.Duration) sim.Duration {
		k := sim.New(1)
		fabric := ib.QDR4X(k)
		a, b := fabric.NewHCA("a"), fabric.NewHCA("b")
		a.ExtraLatency, b.ExtraLatency = extra, extra
		var res workload.RDMALatResult
		k.Spawn("lat", func(p *sim.Proc) { res = workload.RDMALatency(p, a, b, 64<<10, 1000) })
		k.Run()
		return res.Mean
	}
	bm := measure(0)
	kvm := measure(2600 * sim.Nanosecond)
	ratio := float64(kvm) / float64(bm)
	if ratio < 1.15 || ratio > 1.35 {
		t.Fatalf("RDMA latency ratio = %.3f, want ~1.236", ratio)
	}
	t.Logf("RDMA latency: bm=%v kvm=%v (+%.1f%%)", bm, kvm, (ratio-1)*100)
}
