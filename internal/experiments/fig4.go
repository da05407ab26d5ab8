package experiments

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// Fig4 reproduces the OS startup time comparison (paper Figure 4): six
// deployment strategies for the same 32 GB image on gigabit Ethernet. The
// paper's headline: BMcast starts a bare-metal instance 8.6× faster than
// image copying (excluding the initial firmware initialization all
// strategies share).
func Fig4(opt Options) []*report.Table {
	t := &report.Table{
		Title:   "Fig 4 — OS startup time (32 GB image, GbE)",
		Columns: []string{"scenario", "firmware", "vmm/installer", "transfer", "restart", "os-boot", "total", "total-excl-fw"},
	}
	bp := guest.DefaultBootProfile()
	// Keep the boot trace inside the image at reduced scales.
	if max := opt.ImageBytes / 2 / 512; bp.SpanSectors > max {
		bp.SpanSectors = max
	}
	row := func(name string, fw, stage1, transfer, restart, boot sim.Duration) (total, excl sim.Duration) {
		total = fw + stage1 + transfer + restart + boot
		excl = total - fw
		t.AddRow(name, fw, stage1, transfer, restart, boot, total, excl)
		return total, excl
	}
	dash := sim.Duration(0)

	newTB := func(imageBytes int64) (*testbed.Testbed, *testbed.Node) {
		tcfg := testbed.DefaultConfig()
		tcfg.Seed = opt.Seed
		tcfg.ImageBytes = imageBytes
		tb := testbed.New(tcfg)
		return tb, tb.AddNode(tcfg)
	}

	// Baremetal: power on a machine whose disk already holds the image.
	{
		tb, n := newTB(opt.ImageBytes)
		var fw, boot sim.Duration
		runProc(tb, "bm", func(p *sim.Proc) {
			start := p.Now()
			if err := tb.BootBareMetal(p, n, bp); err != nil {
				panic(err)
			}
			fw = n.M.Firmware.InitTime
			boot = p.Now().Sub(start) - fw
		})
		row("Baremetal", fw, dash, dash, dash, boot)
	}

	// BMcast: firmware once, VMM network boot, mediated OS boot.
	var bmcastExcl sim.Duration
	var fetchedMB float64
	{
		tb, n := newTB(opt.ImageBytes)
		var res *testbed.BMcastResult
		runProc(tb, "bmcast", func(p *sim.Proc) {
			r, err := tb.DeployBMcast(p, n, core.DefaultConfig(), bp)
			if err != nil {
				panic(err)
			}
			res = r
			fetchedMB = float64(n.VMM.FetchedBytes.Value()) / 1e6
			// Startup measured; deployment continues off-figure.
		})
		fw := res.FirmwareDone.Sub(0)
		vmm := res.VMMBooted.Sub(res.FirmwareDone)
		boot := res.GuestBooted.Sub(res.VMMBooted)
		_, bmcastExcl = row("BMcast", fw, vmm, dash, dash, boot)
	}

	// Image Copy: installer netboot, full transfer, reboot, OS boot.
	var copyExcl sim.Duration
	{
		tb, n := newTB(opt.ImageBytes)
		rs := baseline.NewRemoteStore(tb.K, "srv-iscsi", baseline.ISCSI, tb.Image)
		var res *baseline.ImageCopyResult
		runProc(tb, "copy", func(p *sim.Proc) {
			r, err := baseline.DeployImageCopy(p, n.M, n.OS, baseline.DefaultImageCopyConfig(), rs, bp)
			if err != nil {
				panic(err)
			}
			res = r
		})
		fw := res.FirmwareDone.Sub(0) - n.M.Firmware.PXETime
		installer := res.InstallerUp.Sub(res.FirmwareDone) + n.M.Firmware.PXETime
		transfer := res.TransferDone.Sub(res.InstallerUp)
		restart := res.RestartDone.Sub(res.TransferDone)
		boot := res.GuestBootedAt.Sub(res.RestartDone)
		_, copyExcl = row("Image Copy", fw, installer, transfer, restart, boot)
	}

	// NFS Root: network boot, no local deployment at all.
	{
		tb, n := newTB(opt.ImageBytes)
		rs := baseline.NewRemoteStore(tb.K, "srv-nfs", baseline.NFS, tb.Image)
		var fw, boot sim.Duration
		runProc(tb, "netboot", func(p *sim.Proc) {
			start := p.Now()
			if err := baseline.BootNetboot(p, n.M, n.OS, rs, bp); err != nil {
				panic(err)
			}
			fw = n.M.Firmware.InitTime
			boot = p.Now().Sub(start) - fw
		})
		row("NFS Root", fw, dash, dash, dash, boot)
	}

	// KVM over NFS and iSCSI.
	for _, kv := range []struct {
		name    string
		proto   baseline.Protocol
		storage baseline.KVMStorage
		ra      bool
	}{
		{"KVM/NFS", baseline.NFS, baseline.KVMNFS, true},
		{"KVM/iSCSI", baseline.ISCSI, baseline.KVMISCSI, false},
	} {
		tb, n := newTB(opt.ImageBytes)
		rs := baseline.NewRemoteStore(tb.K, "srv", kv.proto, tb.Image)
		rs.Readahead = kv.ra
		var fw, host, boot sim.Duration
		runProc(tb, "kvm", func(p *sim.Proc) {
			kvm, err := baseline.StartKVM(p, n.M, baseline.DefaultKVMConfig(), kv.storage, rs)
			if err != nil {
				panic(err)
			}
			if err := kvm.BootGuest(p, bp); err != nil {
				panic(err)
			}
			fw = n.M.Firmware.InitTime
			host = kvm.BootedAt.Sub(0) - fw
			boot = kvm.GuestBootedAt.Sub(kvm.BootedAt)
		})
		row(kv.name, fw, host, dash, dash, boot)
	}

	speedup := float64(copyExcl) / float64(bmcastExcl)
	t.AddNote("BMcast vs image copy (excl. firmware): %.1fx faster (paper: 8.6x)", speedup)
	t.AddNote("BMcast transferred %.0f MB during boot (paper: 72 MB redirected + prefetch)", fetchedMB)
	return []*report.Table{t}
}
