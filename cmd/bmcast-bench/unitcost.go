package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/aoe"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/guest"
	"repro/internal/hw/disk"
	"repro/internal/hw/nic"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/vblade"
)

// Unit costs: the host time of one public call, timed in isolation. A
// layer's count in a run times its unit cost estimates the host time the
// layer spent, comparably across hosts.
//
// Each probe runs its operation in batches of a fixed size and reports
// the median nanoseconds per operation over the batches.
type unitProbe struct {
	name string
	// prepare builds the probe's fixture and returns one batch: it runs
	// the operation and returns how many operations it ran.
	prepare func() (batch func() int, err error)
}

var unitProbes = []unitProbe{
	{"sim.ns_per_event", probeEvent},
	{"sim.ns_per_proc_switch", probeProcSwitch},
	{"aoe.ns_per_mb_read", probeAoERead},
	{"mediator.ns_per_redirect", probeRedirect},
	{"disk.ns_per_write_fragmented", probeFragmentedWrite},
	{"core.ns_per_unfilled_runs", probeUnfilledRuns},
	{"trace.ns_per_span", probeSpan},
}

// unitCosts runs every probe for the given number of batches.
func unitCosts(batches int) (map[string]float64, error) {
	out := make(map[string]float64, len(unitProbes))
	for _, p := range unitProbes {
		batch, err := p.prepare()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		per := make([]float64, batches)
		for i := range per {
			start := time.Now()
			n := batch()
			per[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
		}
		sort.Float64s(per)
		out[p.name] = median(per)
	}
	return out, nil
}

// probeEvent times kernel event dispatch: a chain of After callbacks.
func probeEvent() (func() int, error) {
	const n = 500_000
	return func() int {
		k := sim.New(1)
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				k.After(sim.Microsecond, tick)
			}
		}
		k.After(sim.Microsecond, tick)
		k.Run()
		return n
	}, nil
}

// probeProcSwitch times one process switch: two processes hand control to
// each other through signals, and every park is one switch.
func probeProcSwitch() (func() int, error) {
	const rounds = 10_000
	return func() int {
		k := sim.New(1)
		var parks int
		k.SetProcHook(func(_ sim.Time, ev sim.ProcEvent, _ string) {
			if ev == sim.ProcPark {
				parks++
			}
		})
		ping, pong := k.NewSignal("ping"), k.NewSignal("pong")
		turn := 0
		k.Spawn("a", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				turn = 1
				pong.Broadcast()
				p.WaitCond(ping, func() bool { return turn == 0 })
			}
		})
		k.Spawn("b", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				p.WaitCond(pong, func() bool { return turn == 1 })
				turn = 0
				ping.Broadcast()
			}
		})
		k.Run()
		return parks
	}, nil
}

// probeAoERead times reading through an AoE initiator from a vblade
// server over a gigabit jumbo-frame switch, in 1 MB requests.
func probeAoERead() (func() int, error) {
	const mb = 16
	return func() int {
		k := sim.New(1)
		sw := ethernet.NewSwitch(k, "sw", 5*sim.Microsecond)
		client := nic.New(k, "cl0", nic.IntelPro1000, 2, sw.Connect(ethernet.GigabitJumbo()))
		server := nic.New(k, "sv0", nic.IntelX540, 1, sw.Connect(ethernet.GigabitJumbo()))
		srv := vblade.NewServer(k, server, 8)
		srv.AddTarget(0, 0, disk.NewSynthImage("probe", (mb+1)<<20, 7))
		srv.Start()
		in := aoe.NewInitiator(k, client, 1, 0, 0)
		k.Spawn("client", func(p *sim.Proc) {
			const chunk = (1 << 20) / disk.SectorSize
			for i := int64(0); i < mb; i++ {
				if _, err := in.Read(p, i*chunk, chunk); err != nil {
					panic(fmt.Sprintf("aoe probe: %v", err)) // lossless link: a failure is a bug
				}
			}
			k.Stop()
		})
		k.Run()
		return mb
	}, nil
}

// probeRedirect times one mediated copy-on-read redirect (4 KB) through
// mediator, AoE, server and local write-through, on a deployment whose
// background copy is held back. Every batch reads sectors no earlier read
// filled.
func probeRedirect() (func() int, error) {
	const reads = 400
	cfg := testbed.DefaultConfig()
	cfg.ImageBytes = 8 << 30
	tb := testbed.New(cfg)
	n := tb.AddNode(cfg)
	n.M.Firmware.InitTime = sim.Second
	vcfg := core.DefaultConfig()
	vcfg.WriteInterval = sim.Hour
	vcfg.StallTimeout = 0
	bp := guest.DefaultBootProfile()
	bp.TotalBytes = 1 << 20
	bp.CPUTime = 100 * sim.Millisecond
	bp.SpanSectors = 1 << 20
	var err error
	tb.K.Spawn("prep", func(p *sim.Proc) {
		_, err = tb.DeployBMcast(p, n, vcfg, bp)
		tb.K.Stop()
	})
	tb.K.Run()
	if err != nil {
		return nil, err
	}
	next := int64(0)
	return func() int {
		done := false
		tb.K.Spawn("probe", func(p *sim.Proc) {
			for i := 0; i < reads; i++ {
				lba := (1 << 21) + next*8
				next++
				if _, rerr := n.OS.ReadSectors(p, lba, 8, true); rerr != nil {
					panic(fmt.Sprintf("redirect probe: %v", rerr)) // healthy deployment: a failure is a bug
				}
			}
			done = true
			tb.K.Stop()
		})
		for !done && tb.K.Pending() > 0 {
			tb.K.RunUntil(tb.K.Now().Add(sim.Hour))
		}
		return reads
	}, nil
}

// probeFragmentedWrite times Store.Write on a store fragmented into about
// 16 k extents: each write replaces one 8-sector fragment with the other
// of two sources, so the extent count stays put.
func probeFragmentedWrite() (func() int, error) {
	const frags, stride, writes = 8192, 64, 200
	s := disk.NewStore(frags * stride * 2)
	srcs := [2]disk.SectorSource{disk.Synth{Seed: 1}, disk.Synth{Seed: 2}}
	for i := int64(0); i < frags; i++ {
		s.Write(i*stride, 8, srcs[i%2])
	}
	flip := make([]int, frags)
	i := 0
	return func() int {
		for w := 0; w < writes; w++ {
			f := (i * 4099) % frags // visit fragments in a scattered order
			i++
			flip[f] ^= 1
			s.Write(int64(f)*stride, 8, srcs[(f+flip[f])%2])
		}
		return writes
	}, nil
}

// probeUnfilledRuns times Bitmap.UnfilledRuns over 64 KB windows of a
// half-filled 4 GB bitmap whose filled sectors alternate in 4 KB chunks.
func probeUnfilledRuns() (func() int, error) {
	const calls = 20_000
	bm := core.NewBitmap(4 << 30 / disk.SectorSize)
	half := bm.Sectors() / 2
	for lba := int64(0); lba < half; lba += 16 {
		bm.MarkFilled(lba, 8)
	}
	i := int64(0)
	return func() int {
		for c := 0; c < calls; c++ {
			lba := (i * 7919 * 8) % (half - 128)
			i++
			if len(bm.UnfilledRuns(lba, 128)) == 0 {
				panic("unfilled-runs probe: window unexpectedly full") // fixture invariant
			}
		}
		return calls
	}, nil
}

// probeSpan times one recorded trace span (Begin and End) on a recorder.
func probeSpan() (func() int, error) {
	const spans = 50_000
	return func() int {
		r := trace.NewRecorder(sim.New(1))
		for i := 0; i < spans; i++ {
			r.Begin("node0", "mediator", "redirect").End()
		}
		return spans
	}, nil
}
