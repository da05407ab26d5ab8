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

	free []*xfer // pooled transfers of the blocking calls
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

// bootWrites is the content of the boot's log and state writes.
var bootWrites disk.SectorSource = disk.Synth{Seed: 0xB007, Label: "boot-writes"}

// Boot runs the OS boot sequence: driver initialization followed by the
// profile's op stream, reads and writes with interleaved compute. The op
// stream runs as kernel callbacks; the calling process suspends once,
// until the stream ends. The boot span parents on cause, the span of
// whatever drove the boot, or is a root for a nil cause.
func (o *OS) Boot(p *sim.Proc, cause *trace.Span, bp BootProfile) error {
	start := p.Now()
	// The boot span is the guest's side of the causal DAG: the driver's
	// initialization and the mediated commands the boot issues parent
	// under it.
	var sp *trace.Span
	if o.M.Trace != nil {
		sp = o.M.Trace.BeginChild(cause, o.M.Name, "guest", "boot",
			trace.Int("bytes", bp.TotalBytes))
	}
	defer sp.End()
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
	if err := o.Drv.Init(p, sp); err != nil {
		return fmt.Errorf("guest: driver init: %w", err)
	}
	b := &boot{o: o, ops: bp.Ops(), sp: sp}
	b.stepFn = b.step
	b.x.bind(o)
	b.x.then = b.stepFn
	b.p = p
	b.step()
	p.Suspend()
	if b.err != nil {
		return b.err
	}
	o.Booted = true
	o.BootTook = p.Now().Sub(start)
	return nil
}

// bootStep is where a boot's step function resumes.
type bootStep uint8

const (
	bootNext bootStep = iota // draw the next op
	bootIO                   // the op's think time is over: transfer
	bootDone                 // the op's transfer ended
)

// boot is a boot's op stream in flight. Each op's think time is one
// After, in the slot the process's Compute sleep took, and each op's
// transfer is an xfer that continues the stream when it ends.
type boot struct {
	o      *OS
	ops    *BootOps
	op     BootOp
	pc     bootStep
	x      xfer
	sp     *trace.Span
	err    error
	p      *sim.Proc // the booting process, suspended until the stream ends
	stepFn func()
}

// step runs the op stream until it blocks or ends.
func (b *boot) step() {
	o := b.o
	for {
		switch b.pc {
		case bootNext:
			op, ok := b.ops.Next()
			if !ok {
				b.p.Resume()
				return
			}
			b.op, b.pc = op, bootIO
			if op.Think > 0 {
				o.M.K.After(o.computeTime(op.Think, 0.2), b.stepFn)
				return
			}
		case bootIO:
			b.pc = bootDone
			if b.op.Write {
				b.x.start(OpWrite, b.op.LBA, b.op.Count, false, bootWrites, b.sp)
			} else {
				b.x.start(OpRead, b.op.LBA, b.op.Count, true, nil, b.sp)
			}
			return
		case bootDone:
			if err := b.x.err; err != nil {
				kind := "read"
				if b.op.Write {
					kind = "write"
				}
				b.err = fmt.Errorf("guest: boot %s at %d: %w", kind, b.op.LBA, err)
				b.p.Resume()
				return
			}
			b.pc = bootNext
		}
	}
}

// Compute consumes d of CPU time scaled by the platform's current
// slowdown for work whose memory-bound share is memShare.
func (o *OS) Compute(p *sim.Proc, d sim.Duration, memShare float64) {
	p.Sleep(o.computeTime(d, memShare))
}

// computeTime scales d of CPU time by the platform's current slowdown.
func (o *OS) computeTime(d sim.Duration, memShare float64) sim.Duration {
	return sim.Duration(float64(d) * o.M.World.Slowdown(memShare))
}

// xfer is one OS-level transfer: a read or write the OS splits into
// driver requests of at most MaxTransferSectors, issued one after
// another, or a flush. It runs as kernel callbacks; a boot's op stream
// and the blocking ReadSectors, WriteSectors and Flush share it.
type xfer struct {
	o          *OS
	req        Request // the driver request in flight; its Done is next
	lba, count int64   // the range still to transfer
	out        []byte  // read data gathered, unless discarding
	err        error
	then       func()    // continues a callback issuer once the transfer ends
	p          *sim.Proc // a blocking issuer
}

// bind ties a transfer record to its OS and binds its continuation.
func (x *xfer) bind(o *OS) {
	x.o = o
	x.req.Done = x.next
}

// start begins a transfer of count sectors at lba (a flush ignores the
// range) for a guest context whose causal span is cause.
func (x *xfer) start(op Op, lba, count int64, discard bool, src disk.SectorSource, cause *trace.Span) {
	r := &x.req
	r.Op, r.Discard, r.Source, r.Cause = op, discard, src, cause
	x.lba, x.count, x.err = lba, count, nil
	if op == OpFlush {
		x.submit(0, 0)
		return
	}
	x.issue()
}

// issue submits the next driver request, or ends the transfer.
func (x *xfer) issue() {
	if x.count <= 0 {
		x.end()
		return
	}
	x.submit(x.lba, min(x.count, MaxTransferSectors))
}

func (x *xfer) submit(lba, count int64) {
	r := &x.req
	r.LBA, r.Count, r.Data, r.Err = lba, count, nil, nil
	x.o.Drv.Submit(r)
}

// next takes a driver request's outcome and issues the next request.
func (x *xfer) next() {
	r, o := &x.req, x.o
	if r.Err != nil {
		x.err = r.Err
		x.end()
		return
	}
	n := r.Count
	switch r.Op {
	case OpRead:
		if !r.Discard {
			x.out = append(x.out, r.Data...)
		}
		o.Reads.Inc()
		o.BytesRead.Add(n * disk.SectorSize)
	case OpWrite:
		o.Writes.Inc()
		o.BytesWrote.Add(n * disk.SectorSize)
	case OpFlush:
		x.end()
		return
	}
	x.lba += n
	x.count -= n
	x.issue()
}

// end continues the transfer's issuer.
func (x *xfer) end() {
	x.req.Data, x.req.Source = nil, nil
	if x.then != nil {
		x.then()
		return
	}
	x.p.Resume()
}

// blocking runs a transfer for the process p and suspends p until it
// ends. It returns the gathered data and the outcome.
func (o *OS) blocking(p *sim.Proc, op Op, lba, count int64, discard bool, src disk.SectorSource, out []byte) ([]byte, error) {
	var x *xfer
	if n := len(o.free) - 1; n >= 0 {
		x = o.free[n]
		o.free = o.free[:n]
	} else {
		x = &xfer{}
		x.bind(o)
	}
	x.p, x.out = p, out
	x.start(op, lba, count, discard, src, nil)
	p.Suspend()
	out, err := x.out, x.err
	x.p, x.out, x.err = nil, nil, nil
	o.free = append(o.free, x)
	return out, err
}

// ReadSectors reads count sectors at lba, splitting transfers larger than
// the driver maximum. With discard=true no data is returned.
func (o *OS) ReadSectors(p *sim.Proc, lba, count int64, discard bool) ([]byte, error) {
	var out []byte
	if !discard {
		out = make([]byte, 0, count*disk.SectorSize)
	}
	out, err := o.blocking(p, OpRead, lba, count, discard, nil, out)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteSectors writes the payload, splitting transfers larger than the
// driver maximum.
func (o *OS) WriteSectors(p *sim.Proc, payload disk.Payload) error {
	_, err := o.blocking(p, OpWrite, payload.LBA, payload.Count, false, payload.Source, nil)
	return err
}

// Flush issues a cache flush.
func (o *OS) Flush(p *sim.Proc) error {
	_, err := o.blocking(p, OpFlush, 0, 0, false, nil, nil)
	return err
}
