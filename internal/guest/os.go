package guest

import (
	"fmt"

	"repro/internal/cpuvirt"
	"repro/internal/hw/disk"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// OS is the guest operating system instance on one machine.
type OS struct {
	Name string
	M    *machine.Machine
	Drv  BlockDriver

	Booted   bool
	BootTook sim.Duration

	Reads      metrics.Counter
	Writes     metrics.Counter
	BytesRead  metrics.Counter
	BytesWrote metrics.Counter
}

// NewOS creates the OS for machine m, selecting the block driver matching
// the machine's storage controller — the same driver code regardless of
// whether a VMM mediates underneath.
func NewOS(name string, m *machine.Machine) *OS {
	o := &OS{Name: name, M: m}
	switch m.Storage {
	case machine.StorageIDE:
		o.Drv = NewIDEDriver(m)
	default:
		o.Drv = NewAHCIDriver(m)
	}
	return o
}

// SetDriver overrides the block driver (the KVM baseline substitutes its
// virtio driver here; everything above the driver is unchanged).
func (o *OS) SetDriver(d BlockDriver) { o.Drv = d }

// Boot runs the OS boot sequence: driver initialization followed by the
// profile's op stream, reads and writes with interleaved compute.
func (o *OS) Boot(p *sim.Proc, bp BootProfile) error {
	start := p.Now()
	// The boot span is the guest's side of the causal DAG: mediated
	// commands issued by this proc parent under it (via the proc-carried
	// cause), and it parents under whatever drove the deployment.
	var sp *trace.Span
	if o.M.Trace != nil {
		sp = o.M.Trace.BeginChild(trace.Cause(p), o.M.Name, "guest", "boot",
			trace.Int("bytes", bp.TotalBytes))
	}
	prevCause := trace.SwapCause(p, sp)
	defer func() {
		trace.SwapCause(p, prevCause)
		sp.End()
	}()
	// SMP bring-up: when a VMM is underneath, each AP's startup IPI and
	// the kernel's early CR0/CR4 writes trap (paper §4.1 lists exactly
	// these events as required VM exits).
	if o.M.World.Virtualized() {
		for range o.M.World.CPUs {
			o.M.World.Exit(p, cpuvirt.ExitStartupIPI)
		}
		for i := 0; i < 2*o.M.World.NCPU(); i++ {
			o.M.World.Exit(p, cpuvirt.ExitCR)
		}
	}
	if err := o.Drv.Init(p); err != nil {
		return fmt.Errorf("guest: driver init: %w", err)
	}
	ops := bp.Ops()
	for op, ok := ops.Next(); ok; op, ok = ops.Next() {
		if op.Think > 0 {
			o.Compute(p, op.Think, 0.2)
		}
		if op.Write {
			src := disk.Synth{Seed: 0xB007, Label: "boot-writes"}
			if err := o.WriteSectors(p, disk.Payload{LBA: op.LBA, Count: op.Count, Source: src}); err != nil {
				return fmt.Errorf("guest: boot write at %d: %w", op.LBA, err)
			}
			continue
		}
		if _, err := o.ReadSectors(p, op.LBA, op.Count, true); err != nil {
			return fmt.Errorf("guest: boot read at %d: %w", op.LBA, err)
		}
	}
	o.Booted = true
	o.BootTook = p.Now().Sub(start)
	return nil
}

// Compute consumes d of CPU time scaled by the platform's current
// slowdown for work whose memory-bound share is memShare.
func (o *OS) Compute(p *sim.Proc, d sim.Duration, memShare float64) {
	p.Sleep(sim.Duration(float64(d) * o.M.World.Slowdown(memShare)))
}

// ReadSectors reads count sectors at lba, splitting transfers larger than
// the driver maximum. With discard=true no data is returned.
func (o *OS) ReadSectors(p *sim.Proc, lba, count int64, discard bool) ([]byte, error) {
	var out []byte
	if !discard {
		out = make([]byte, 0, count*disk.SectorSize)
	}
	for count > 0 {
		n := count
		if n > MaxTransferSectors {
			n = MaxTransferSectors
		}
		b, err := o.Drv.ReadSectors(p, lba, n, discard)
		if err != nil {
			return nil, err
		}
		if !discard {
			out = append(out, b...)
		}
		o.Reads.Inc()
		o.BytesRead.Add(n * disk.SectorSize)
		lba += n
		count -= n
	}
	return out, nil
}

// WriteSectors writes the payload, splitting transfers larger than the
// driver maximum.
func (o *OS) WriteSectors(p *sim.Proc, payload disk.Payload) error {
	lba, count := payload.LBA, payload.Count
	for count > 0 {
		n := count
		if n > MaxTransferSectors {
			n = MaxTransferSectors
		}
		err := o.Drv.WriteSectors(p, disk.Payload{LBA: lba, Count: n, Source: payload.Source})
		if err != nil {
			return err
		}
		o.Writes.Inc()
		o.BytesWrote.Add(n * disk.SectorSize)
		lba += n
		count -= n
	}
	return nil
}
