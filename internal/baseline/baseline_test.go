package baseline_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/guest"
	"repro/internal/hw/disk"
	"repro/internal/machine"
	"repro/internal/sim"
)

func testSetup(imageBytes int64) (*sim.Kernel, *machine.Machine, *disk.Image) {
	k := sim.New(3)
	cfg := machine.RX200S6("m0")
	cfg.MemBytes = 512 << 20
	cfg.Disk.Sectors = 1 << 21
	m := machine.New(k, cfg)
	img := disk.NewSynthImage("ubuntu", imageBytes, 9)
	return k, m, img
}

func smallBoot() guest.BootProfile {
	bp := guest.DefaultBootProfile()
	bp.TotalBytes = 8 << 20
	bp.CPUTime = 3 * sim.Second
	bp.SpanSectors = (48 << 20) / disk.SectorSize
	return bp
}

func TestRemoteStoreReadWrite(t *testing.T) {
	k, _, img := testSetup(64 << 20)
	rs := baseline.NewRemoteStore(k, "srv", baseline.NFS, img)
	k.Spawn("client", func(p *sim.Proc) {
		pl, err := rs.Read(p, 100, 64)
		if err != nil {
			t.Error(err)
			return
		}
		want := img.Payload(100, 64)
		if string(pl.Bytes()) != string(want.Bytes()) {
			t.Error("remote read content mismatch")
		}
		src := disk.Synth{Seed: 7, Label: "client"}
		if err := rs.Write(p, disk.Payload{LBA: 100, Count: 8, Source: src}); err != nil {
			t.Error(err)
			return
		}
		pl2, _ := rs.Read(p, 100, 8)
		if pl2.Source != disk.SectorSource(src) {
			t.Error("remote write not visible")
		}
	})
	k.Run()
	if rs.Requests.Value() != 3 {
		t.Fatalf("Requests = %d, want 3", rs.Requests.Value())
	}
}

func TestRemoteStoreBandwidthShared(t *testing.T) {
	k, _, img := testSetup(256 << 20)
	rs := baseline.NewRemoteStore(k, "srv", baseline.NFS, img)
	var solo, contended sim.Duration
	k.Spawn("solo", func(p *sim.Proc) {
		start := p.Now()
		rs.Read(p, 0, 65536) // 32 MB
		solo = p.Now().Sub(start)
	})
	k.Run()
	// Two concurrent 32 MB transfers must each take roughly 2× solo.
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("pair", func(p *sim.Proc) {
			start := p.Now()
			rs.Read(p, int64(i)*131072, 65536)
			if d := p.Now().Sub(start); d > contended {
				contended = d
			}
		})
	}
	k.Run()
	if contended < solo*3/2 {
		t.Fatalf("contended transfer %v not slower than solo %v", contended, solo)
	}
}

func TestRemoteRangeErrors(t *testing.T) {
	k, _, img := testSetup(1 << 20)
	rs := baseline.NewRemoteStore(k, "srv", baseline.ISCSI, img)
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := rs.Read(p, rs.Sectors(), 1); err == nil {
			t.Error("out-of-range remote read accepted")
		}
		if err := rs.Write(p, disk.Payload{LBA: -1, Count: 1, Source: disk.Zero}); err == nil {
			t.Error("bad remote write accepted")
		}
	})
	k.Run()
}

func TestKVMLocalBoot(t *testing.T) {
	k, m, img := testSetup(64 << 20)
	m.SetDiskImage(img)
	m.Firmware.InitTime = sim.Second
	var kvm *baseline.KVM
	k.Spawn("kvm", func(p *sim.Proc) {
		var err error
		kvm, err = baseline.StartKVM(p, m, baseline.DefaultKVMConfig(), baseline.KVMLocal, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := kvm.BootGuest(p, smallBoot()); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if kvm == nil || !kvm.OS.Booted {
		t.Fatal("KVM guest did not boot")
	}
	if !m.World.Virtualized() {
		t.Fatal("KVM world not virtualized")
	}
	if m.World.Overheads.MemPenalty == 0 {
		t.Fatal("KVM overheads not applied")
	}
	// virtio boot must cost more than host boot + trace CPU alone.
	boot := kvm.GuestBootedAt.Sub(kvm.BootedAt)
	if boot <= 3*sim.Second {
		t.Fatalf("guest boot %v implausibly fast", boot)
	}
}

func TestKVMGuestIOCorrect(t *testing.T) {
	k, m, img := testSetup(64 << 20)
	m.SetDiskImage(img)
	m.Firmware.InitTime = sim.Second
	k.Spawn("kvm", func(p *sim.Proc) {
		kvm, err := baseline.StartKVM(p, m, baseline.DefaultKVMConfig(), baseline.KVMLocal, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := kvm.OS.Drv.Init(p, nil); err != nil {
			t.Error(err)
			return
		}
		got, err := kvm.OS.ReadSectors(p, 500, 16, false)
		if err != nil {
			t.Error(err)
			return
		}
		want := make([]byte, 16*disk.SectorSize)
		img.ReadAt(500, want)
		if string(got) != string(want) {
			t.Error("virtio read content mismatch")
		}
	})
	k.Run()
}

func TestKVMRemoteNeedsStore(t *testing.T) {
	k, m, _ := testSetup(1 << 20)
	k.Spawn("kvm", func(p *sim.Proc) {
		if _, err := baseline.StartKVM(p, m, baseline.DefaultKVMConfig(), baseline.KVMNFS, nil); err == nil {
			t.Error("KVM over NFS without a store accepted")
		}
	})
	k.Run()
}

func TestKVMNFSFasterThanISCSIBoot(t *testing.T) {
	bootWith := func(proto baseline.Protocol, storage baseline.KVMStorage) sim.Duration {
		k, m, img := testSetup(64 << 20)
		m.Firmware.InitTime = sim.Second
		rs := baseline.NewRemoteStore(k, "srv", proto, img)
		var boot sim.Duration
		k.Spawn("kvm", func(p *sim.Proc) {
			kvm, err := baseline.StartKVM(p, m, baseline.DefaultKVMConfig(), storage, rs)
			if err != nil {
				t.Error(err)
				return
			}
			if err := kvm.BootGuest(p, smallBoot()); err != nil {
				t.Error(err)
				return
			}
			boot = kvm.GuestBootedAt.Sub(kvm.BootedAt)
		})
		k.Run()
		return boot
	}
	nfs := bootWith(baseline.NFS, baseline.KVMNFS)
	iscsi := bootWith(baseline.ISCSI, baseline.KVMISCSI)
	if nfs >= iscsi {
		t.Fatalf("NFS boot %v not faster than iSCSI %v", nfs, iscsi)
	}
}

func TestImageCopyDeployment(t *testing.T) {
	k, m, img := testSetup(128 << 20)
	m.Firmware.InitTime = 2 * sim.Second
	rs := baseline.NewRemoteStore(k, "srv", baseline.ISCSI, img)
	o := guest.NewOS("ubuntu", m)
	var res *baseline.ImageCopyResult
	k.Spawn("deploy", func(p *sim.Proc) {
		var err error
		res, err = baseline.DeployImageCopy(p, m, o, baseline.DefaultImageCopyConfig(), rs, smallBoot())
		if err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if res == nil || !o.Booted {
		t.Fatal("image-copy deployment failed")
	}
	if !(res.InstallerUp < res.TransferDone && res.TransferDone < res.RestartDone && res.RestartDone < res.GuestBootedAt) {
		t.Fatalf("stage ordering wrong: %+v", res)
	}
	// The whole image must be on the local disk (image content plus the
	// guest's own boot-time writes).
	var covered int64
	for name, c := range m.Disk.Store().CountBySource() {
		if name != "zero" {
			covered += c
		}
	}
	if covered < img.Sectors {
		t.Fatalf("local disk holds %d of %d image sectors", covered, img.Sectors)
	}
	// 128 MB at ~100 MB/s: transfer stage ≈ 1.3-2 s.
	transfer := res.TransferDone.Sub(res.InstallerUp)
	if transfer < sim.Second || transfer > 4*sim.Second {
		t.Fatalf("transfer took %v, want ~1.3-2s", transfer)
	}
}

func TestNetbootNoLocalDisk(t *testing.T) {
	k, m, img := testSetup(64 << 20)
	m.Firmware.InitTime = sim.Second
	rs := baseline.NewRemoteStore(k, "srv", baseline.NFS, img)
	o := guest.NewOS("ubuntu", m)
	k.Spawn("netboot", func(p *sim.Proc) {
		if err := baseline.BootNetboot(p, m, o, rs, smallBoot()); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if !o.Booted {
		t.Fatal("netboot did not boot")
	}
	// Nothing must have landed on the local disk.
	if m.Disk.BytesWritten.Value() != 0 {
		t.Fatal("netboot wrote the local disk")
	}
	if rs.BytesRead.Value() == 0 {
		t.Fatal("netboot read nothing from the server")
	}
}

func TestLHPOverheadsConfigured(t *testing.T) {
	cfg := baseline.DefaultKVMConfig()
	if cfg.LHPProb <= 0 || cfg.LHPStall <= 0 {
		t.Fatal("LHP parameters missing")
	}
	if cfg.MemPenalty < 0.2 || cfg.MemPenalty > 0.5 {
		t.Fatalf("MemPenalty %v outside the paper's plausible band", cfg.MemPenalty)
	}
}
