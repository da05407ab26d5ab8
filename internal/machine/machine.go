// Package machine assembles simulated hardware into the paper's testbed
// machines: FUJITSU PRIMERGY RX200 S6 servers with two 6-core Xeon X5680s,
// 96 GB of memory, a 500 GB SATA drive behind an IDE or AHCI controller,
// two gigabit NICs (one dedicated to the VMM), and a 4X QDR InfiniBand
// HCA, all connected through shared switches.
package machine

import (
	"fmt"

	"repro/internal/cpuvirt"
	"repro/internal/ethernet"
	"repro/internal/firmware"
	"repro/internal/hw/ahci"
	"repro/internal/hw/disk"
	"repro/internal/hw/ib"
	"repro/internal/hw/ide"
	hwio "repro/internal/hw/io"
	"repro/internal/hw/mem"
	"repro/internal/hw/nic"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// StorageKind selects the machine's disk controller type.
type StorageKind int

// Supported storage controllers (the paper implements mediators for both).
const (
	StorageIDE StorageKind = iota
	StorageAHCI
)

func (s StorageKind) String() string {
	if s == StorageAHCI {
		return "ahci"
	}
	return "ide"
}

// Config describes one machine.
type Config struct {
	Name         string
	NCPU         int
	MemBytes     int64
	Disk         disk.Params
	Storage      StorageKind
	FirmwareInit sim.Duration
}

// RX200S6 returns the paper's testbed configuration.
func RX200S6(name string) Config {
	return Config{
		Name:         name,
		NCPU:         12, // 2 × 6 cores, hyper-threading disabled
		MemBytes:     96 << 30,
		Disk:         disk.Constellation2(),
		Storage:      StorageAHCI,
		FirmwareInit: 133 * sim.Second,
	}
}

// Machine is one assembled server.
type Machine struct {
	K    *sim.Kernel
	Name string

	Mem      *mem.Memory
	IO       *hwio.Space
	World    *cpuvirt.World
	Firmware *firmware.Firmware

	Disk       *disk.Device
	Storage    StorageKind
	IDE        *ide.Controller
	AHCI       *ahci.HBA
	StorageIRQ *hwio.IRQ
	// StorageRegions are the I/O-space region names of the storage
	// controller, for mediator tap installation.
	StorageRegions []string

	NICs []*nic.NIC
	IB   *ib.HCA

	// Trace and Metrics are the machine's observability sinks, set by the
	// testbed (or left nil). Components reached through the machine (VMM,
	// mediators) record into them; all recording is nil-safe.
	Trace   *trace.Recorder
	Metrics *metrics.Registry
}

// New assembles a machine on kernel k.
func New(k *sim.Kernel, cfg Config) *Machine {
	m := &Machine{
		K:       k,
		Name:    cfg.Name,
		Mem:     mem.New(cfg.MemBytes),
		IO:      hwio.NewSpace(k),
		World:   cpuvirt.NewWorld(k, cfg.NCPU),
		Storage: cfg.Storage,
	}
	m.Firmware = firmware.New(m.Mem, cfg.FirmwareInit)
	m.Disk = disk.NewDevice(k, cfg.Name+".sda", cfg.Disk)
	m.StorageIRQ = hwio.NewIRQ(k, cfg.Name+".storage-irq")
	switch cfg.Storage {
	case StorageIDE:
		m.IDE = ide.New(k, cfg.Name+".ide0", m.Disk, m.Mem, m.StorageIRQ)
		cmd, ctl, bm := m.IDE.RegisterRegions(m.IO)
		m.StorageRegions = []string{cmd, ctl, bm}
	case StorageAHCI:
		m.AHCI = ahci.New(k, cfg.Name+".ahci0", m.Disk, m.Mem, m.StorageIRQ)
		m.StorageRegions = []string{m.AHCI.RegisterRegion(m.IO)}
	default:
		panic(fmt.Sprintf("machine: unknown storage kind %d", cfg.Storage))
	}
	return m
}

// AttachNIC connects a new NIC to link and records it. By convention NIC 0
// is the guest's and NIC 1 is dedicated to the VMM, matching the testbed's
// two Intel 82575EB ports.
func (m *Machine) AttachNIC(model nic.Model, mac ethernet.MAC, link *ethernet.Link) *nic.NIC {
	n := nic.New(m.K, fmt.Sprintf("%s.eth%d", m.Name, len(m.NICs)), model, mac, link)
	m.NICs = append(m.NICs, n)
	return n
}

// AttachIB connects the machine to an InfiniBand fabric.
func (m *Machine) AttachIB(f *ib.Fabric) *ib.HCA {
	m.IB = f.NewHCA(m.Name + ".ib0")
	return m.IB
}

// SetDiskImage pre-loads the local disk with an image (the bare-metal
// "already deployed" starting state used by baseline measurements).
func (m *Machine) SetDiskImage(img *disk.Image) {
	n := img.Sectors
	if n > m.Disk.Sectors {
		n = m.Disk.Sectors
	}
	m.Disk.Store().Write(0, n, img)
}

// StorageBusy reports whether the storage controller is executing a
// command.
func (m *Machine) StorageBusy() bool {
	switch m.Storage {
	case StorageIDE:
		return m.IDE.Busy()
	default:
		return m.AHCI.Busy()
	}
}
