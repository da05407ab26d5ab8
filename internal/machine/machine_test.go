package machine

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/hw/disk"
	"repro/internal/hw/ib"
	"repro/internal/hw/nic"
	"repro/internal/sim"
)

func TestRX200S6Assembly(t *testing.T) {
	k := sim.New(1)
	cfg := RX200S6("m0")
	m := New(k, cfg)
	if m.World.NCPU() != 12 {
		t.Fatalf("NCPU = %d, want 12", m.World.NCPU())
	}
	if m.Mem.Size() != 96<<30 {
		t.Fatalf("memory = %d, want 96 GB", m.Mem.Size())
	}
	if m.Storage != StorageAHCI || m.AHCI == nil {
		t.Fatal("default storage should be AHCI")
	}
	if len(m.StorageRegions) == 0 || m.IO.Lookup(m.StorageRegions[0]) == nil {
		t.Fatal("storage regions not registered")
	}
	if m.Firmware.InitTime != 133*sim.Second {
		t.Fatalf("firmware init = %v", m.Firmware.InitTime)
	}
	if m.StorageBusy() {
		t.Fatal("fresh controller reports busy")
	}
}

func TestIDEVariant(t *testing.T) {
	k := sim.New(1)
	cfg := RX200S6("m0")
	cfg.Storage = StorageIDE
	m := New(k, cfg)
	if m.IDE == nil || m.AHCI != nil {
		t.Fatal("IDE variant misassembled")
	}
	if len(m.StorageRegions) != 3 {
		t.Fatalf("IDE regions = %d, want 3 (cmd/ctl/bm)", len(m.StorageRegions))
	}
	if StorageIDE.String() != "ide" || StorageAHCI.String() != "ahci" {
		t.Fatal("StorageKind names wrong")
	}
}

func TestAttachments(t *testing.T) {
	k := sim.New(1)
	m := New(k, RX200S6("m0"))
	sw := ethernet.NewSwitch(k, "sw", sim.Microsecond)
	n0 := m.AttachNIC(nic.IntelPro1000, 0x10, sw.Connect(ethernet.GigabitJumbo()))
	n1 := m.AttachNIC(nic.IntelPro1000, 0x11, sw.Connect(ethernet.GigabitJumbo()))
	if len(m.NICs) != 2 || m.NICs[0] != n0 || m.NICs[1] != n1 {
		t.Fatal("NIC attachment bookkeeping wrong")
	}
	fabric := ib.QDR4X(k)
	h := m.AttachIB(fabric)
	if m.IB != h || fabric.Size() != 1 {
		t.Fatal("IB attachment wrong")
	}
}

func TestSetDiskImage(t *testing.T) {
	k := sim.New(1)
	cfg := RX200S6("m0")
	cfg.Disk.Sectors = 1 << 20
	m := New(k, cfg)
	img := disk.NewSynthImage("img", 16<<20, 3)
	m.SetDiskImage(img)
	if m.Disk.Store().SourceAt(0) != disk.SectorSource(img) {
		t.Fatal("image not preloaded")
	}
	if m.Disk.Store().SourceAt(img.Sectors) != disk.Zero {
		t.Fatal("preload spilled past the image")
	}
}
