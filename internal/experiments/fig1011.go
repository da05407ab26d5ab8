package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/hw/disk"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// fioRegionLBA is where the fio/ioping test file lives. The workload lays
// the file out first (as fio does), so reads hit guest-written blocks and
// the deployment-phase overhead comes from background-copy interference,
// not from copy-on-read.
const fioRegionLBA = 20 << 21 // 20 GB into the disk

// Fig10 reproduces the storage throughput benchmark (paper Figure 10):
// fio reading and writing 200 MB in 1 MB direct-I/O blocks. Paper:
// Baremetal 116.6/111.9 MB/s; Deploy −4.1% read; Devirt −1.7%; KVM/Local
// −10.5%/−13.6%; KVM/NFS −12.3%/−15.3%; Netboot is network-bound.
func Fig10(opt Options) []*report.Table {
	t := &report.Table{
		Title:   "Fig 10 — fio storage throughput (200 MB, 1 MB blocks)",
		Columns: []string{"platform", "read MB/s", "read vs BM", "write MB/s", "write vs BM"},
	}
	var bmRead, bmWrite float64
	addRow := func(name string, read, write float64) {
		if name == "Baremetal" {
			bmRead, bmWrite = read, write
		}
		t.AddRow(name, fmt.Sprintf("%.1f", read/1e6), pct(read, bmRead),
			fmt.Sprintf("%.1f", write/1e6), pct(write, bmWrite))
	}

	runFio := func(r *rig, initDriver bool) (read, write float64) {
		runProc(r.tb, "measure", func(p *sim.Proc) {
			if initDriver {
				if err := r.os.Drv.Init(p, nil); err != nil {
					panic(err)
				}
			}
			// Lay out the file, then measure.
			if _, err := workload.Fio(p, r.os, true, 200<<20, 1<<20, fioRegionLBA); err != nil {
				panic(err)
			}
			rr, err := workload.Fio(p, r.os, false, 200<<20, 1<<20, fioRegionLBA)
			if err != nil {
				panic(err)
			}
			wr, err := workload.Fio(p, r.os, true, 200<<20, 1<<20, fioRegionLBA)
			if err != nil {
				panic(err)
			}
			read, write = rr.Throughput, wr.Throughput
		})
		return read, write
	}

	for _, pl := range []platform{platBaremetal, platDeploy, platDevirt, platKVM} {
		r := prepare(opt, pl)
		read, write := runFio(r, pl == platBaremetal || pl == platDevirt)
		name := pl.String()
		if pl == platKVM {
			name = "KVM/Local"
		}
		addRow(name, read, write)
	}

	// Netboot: all I/O over NFS.
	{
		tcfg := testbed.DefaultConfig()
		tcfg.Seed = opt.Seed
		tcfg.ImageBytes = opt.DevirtImageBytes
		tb := testbed.New(tcfg)
		n := tb.AddNode(tcfg)
		n.M.Firmware.InitTime = sim.Second
		rs := baseline.NewRemoteStore(tb.K, "srv-nfs", baseline.NFS, disk.NewSynthImage("big", 32<<30, 5))
		n.OS.SetDriver(baseline.NewNetbootDriver(rs))
		r := &rig{tb: tb, n: n, os: n.OS}
		read, write := runFio(r, true)
		addRow("Netboot", read, write)
	}

	// KVM/NFS.
	{
		tcfg := testbed.DefaultConfig()
		tcfg.Seed = opt.Seed
		tcfg.ImageBytes = opt.DevirtImageBytes
		tb := testbed.New(tcfg)
		n := tb.AddNode(tcfg)
		n.M.Firmware.InitTime = sim.Second
		rs := baseline.NewRemoteStore(tb.K, "srv-nfs", baseline.NFS, disk.NewSynthImage("big", 32<<30, 5))
		rs.Readahead = true
		r := &rig{tb: tb, n: n, os: n.OS}
		tb.K.Spawn("prep", func(p *sim.Proc) {
			kvm, err := baseline.StartKVM(p, n.M, baseline.DefaultKVMConfig(), baseline.KVMNFS, rs)
			if err != nil {
				panic(err)
			}
			r.os = kvm.OS
		})
		tb.Set.Run(nil)
		read, write := runFio(r, true)
		addRow("KVM/NFS", read, write)
	}

	t.AddNote("paper: BM 116.6/111.9; Deploy read −4.1%%; Devirt −1.7%%; KVM/Local −10.5/−13.6%%; KVM/NFS −12.3/−15.3%%")
	return []*report.Table{t}
}

// Fig11 reproduces the storage latency benchmark (paper Figure 11):
// ioping-style paced 4 KB reads within a 1 MB window. Paper: Deploy
// +4.3 ms mean (blocking behind multiplexed VMM requests); Devirt adds
// nothing.
func Fig11(opt Options) []*report.Table {
	t := &report.Table{
		Title:   "Fig 11 — ioping storage latency (4 KB reads, 1 MB window)",
		Columns: []string{"platform", "mean ms", "p99 ms", "vs BM mean"},
	}
	var bmMean sim.Duration
	for _, pl := range []platform{platBaremetal, platDeploy, platDevirt, platKVM} {
		r := prepare(opt, pl)
		var res workload.IopingResult
		runProc(r.tb, "measure", func(p *sim.Proc) {
			if pl == platBaremetal || pl == platDevirt {
				if err := r.os.Drv.Init(p, nil); err != nil {
					panic(err)
				}
			}
			// Lay the probe file out first, as ioping requires an
			// existing file.
			src := disk.Synth{Seed: 0x10, Label: "ioping-file"}
			if err := r.os.WriteSectors(p, disk.Payload{LBA: fioRegionLBA, Count: 2048, Source: src}); err != nil {
				panic(err)
			}
			var err error
			res, err = workload.Ioping(p, r.os, 100, 4096, 200*sim.Millisecond, fioRegionLBA)
			if err != nil {
				panic(err)
			}
		})
		if pl == platBaremetal {
			bmMean = res.Mean
		}
		delta := "-"
		if pl != platBaremetal {
			delta = fmt.Sprintf("%+.1f ms", (res.Mean - bmMean).Milliseconds())
		}
		t.AddRow(pl.String(), fmt.Sprintf("%.2f", res.Mean.Milliseconds()),
			fmt.Sprintf("%.2f", res.P99.Milliseconds()), delta)
	}
	t.AddNote("paper: Deploy +4.3 ms mean (queued behind VMM insertions); Devirt ≈ Baremetal")
	return []*report.Table{t}
}
