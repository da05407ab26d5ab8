// Package guest models an unmodified guest operating system: block-device
// drivers that program the IDE/AHCI controllers exactly as real minimal
// drivers do (task files, PRD tables, command lists — all through the I/O
// space, so a mediator's taps see every access), a boot sequence driven by
// a deterministic read trace, and the execution surface workloads run on.
//
// OS transparency is the point: the same driver code runs on bare metal,
// under BMcast (where its register traffic is mediated), and under KVM
// pass-through, without knowing which.
//
// Guest I/O runs as kernel callbacks, not processes (DESIGN.md §5a,
// "Event-driven guest"): a driver request, an OS transfer and a boot's op
// stream are records whose steps each complete or schedule exactly one
// callback, in the (when, seq) slot a blocked process's wakeup used to
// take. The blocking calls suspend their process once and are resumed by
// the final step.
package guest

import (
	"fmt"

	"repro/internal/hw/disk"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MaxTransferSectors is the largest single driver command (1 MB), matching
// typical block-layer segmentation.
const MaxTransferSectors = 2048

// BlockDriver is the guest kernel's storage driver interface.
type BlockDriver interface {
	// Init probes and initializes the device; it must be called once
	// before I/O. cause is the initializing context's causal span: the
	// driver's register accesses and commands carry it.
	Init(p *sim.Proc, cause *trace.Span) error
	// Submit starts r. The driver runs it as kernel callbacks and calls
	// r.Done once r completes, with the outcome in r.Data and r.Err. A
	// request the driver rejects outright completes before Submit returns.
	Submit(r *Request)
	// Name identifies the driver.
	Name() string
}

// Op is what a block request does.
type Op uint8

// Block request operations.
const (
	OpRead Op = iota
	OpWrite
	OpFlush
)

// Request is one block request of at most MaxTransferSectors, in
// callback form. Its issuer binds Done once and reuses the record.
type Request struct {
	Op         Op
	LBA, Count int64
	// Discard marks a read whose data the issuer will not look at: it is
	// not materialized into guest memory, and Data stays nil.
	Discard bool
	// Source is a write's content.
	Source disk.SectorSource
	// Cause is the issuing guest context's causal span; mediated
	// commands parent on it.
	Cause *trace.Span
	// Done continues the issuer once the request completes.
	Done func()

	// Data is a read's content unless Discard; Err is the outcome.
	Data []byte
	Err  error
}

// Complete records a request's outcome and continues its issuer. A
// driver calls it once per request.
func (r *Request) Complete(data []byte, err error) {
	r.Data, r.Err = data, err
	r.Done()
}

// validateRange rejects transfers the drivers cannot express.
func validateRange(lba, count int64) error {
	if lba < 0 || count <= 0 {
		return fmt.Errorf("guest: invalid transfer [%d,+%d)", lba, count)
	}
	if count > MaxTransferSectors {
		return fmt.Errorf("guest: transfer of %d sectors exceeds driver max %d", count, MaxTransferSectors)
	}
	return nil
}
