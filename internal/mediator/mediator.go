// Package mediator implements BMcast's device mediators: the components
// that let physical storage controllers be shared between the guest OS and
// the VMM while remaining directly exposed, and then seamlessly
// de-virtualized (paper §3.2).
//
// A mediator performs three tasks built on register-level I/O
// interpretation:
//
//   - I/O interpretation: it taps the controller's registers, shadows the
//     task file / command list, and reconstructs command, status, and data
//     (DMA buffer) information from the traffic it sees.
//   - I/O redirection (copy-on-read): a guest read touching unfilled
//     blocks is blocked before reaching the device, satisfied from the
//     storage server, written through to the local disk, copied into the
//     guest's DMA buffers by the mediator acting as a virtual DMA
//     controller, and completed by restarting the device on a one-sector
//     dummy read so the device itself raises the completion interrupt.
//   - I/O multiplexing (background copy): the VMM's own requests are
//     inserted when the device is idle, with device interrupts disabled
//     and completion detected by polling; guest requests arriving
//     meanwhile are queued behind an emulated idle status and replayed
//     afterwards.
//
// Interpretation is controller-specific (ahci.go, ide.go); redirection and
// multiplexing are written once, in pipeline.go, over a handful of device
// primitives each controller supplies.
package mediator

import (
	"repro/internal/hw/disk"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Run is a contiguous sector range. The VMM's block bitmap uses the same
// type (core.Run is an alias), so unfilled runs reach a mediator
// without a copy.
type Run struct {
	LBA   int64
	Count int64
}

// End reports the first sector past the run.
func (r Run) End() int64 { return r.LBA + r.Count }

// Backend is what the VMM provides to a mediator: block state, server
// fetches, and polling policy.
type Backend interface {
	// AllFilled reports whether every sector of the range already holds
	// valid local data.
	AllFilled(lba, count int64) bool
	// AppendUnfilledRuns appends the unfilled sub-ranges of the range to
	// dst in ascending order and returns the extended slice.
	AppendUnfilledRuns(dst []Run, lba, count int64) []Run
	// Fetch retrieves a range from the storage server and calls done with
	// the result, from the event that completes the fetch or, for one that
	// fails before it is sent, at once. cause parents the fetch's spans. A
	// mediator has at most one fetch in flight.
	Fetch(cause *trace.Span, lba, count int64, done func(disk.Payload, error))
	// MarkFilled records that the range now holds valid local data.
	MarkFilled(lba, count int64)
	// GuestWrote records a guest write (fills blocks with guest data and
	// feeds the moderation's guest-I/O-frequency estimate).
	GuestWrote(lba, count int64)
	// GuestRead feeds the moderation's guest-I/O-frequency estimate.
	GuestRead(lba, count int64)
	// PollInterval is the current device polling interval, derived from
	// recent network round-trip and I/O latency (paper §4.1).
	PollInterval() sim.Duration
	// Protected reports whether the range intersects the VMM's on-disk
	// bitmap save area, which must be hidden from the guest (§3.3).
	Protected(lba, count int64) bool
}

// Mediator is the per-controller mediation interface used by the VMM.
type Mediator interface {
	// Attach installs the mediator's taps; the controller's registers
	// start trapping.
	Attach()
	// Detach removes the taps — the de-virtualization step. It must only
	// be called when Quiesced reports true.
	Detach()
	// InsertWrite performs I/O multiplexing: write the payload to the
	// local disk as a VMM request. The guard, if non-nil, runs after the
	// device has been acquired and can cancel the insertion (used for
	// the atomic bitmap re-check); InsertWrite reports whether the write
	// was performed. The insertion's span parents on cause.
	InsertWrite(p *sim.Proc, cause *trace.Span, payload disk.Payload, guard func() bool) bool
	// InsertRead performs I/O multiplexing for a VMM read of the local
	// disk (used for bitmap recovery at boot). Its span parents on cause.
	InsertRead(p *sim.Proc, cause *trace.Span, lba, count int64) (disk.Payload, bool)
	// Quiesced reports whether the mediator holds no in-flight mediated
	// state, i.e. a consistent hardware state for de-virtualization.
	Quiesced() bool
	// Stats exposes mediation counters.
	Stats() *Stats
}

// Stats are the mediation counters every mediator maintains.
type Stats struct {
	GuestCommands  metrics.Counter // guest commands observed
	PassedThrough  metrics.Counter // data commands passed to the device untouched
	Redirects      metrics.Counter // copy-on-read redirections
	RedirectBytes  metrics.Counter
	Inserted       metrics.Counter // VMM requests multiplexed in
	InsertedBytes  metrics.Counter
	QueuedCommands metrics.Counter // guest commands queued during insertion
	DummyRestarts  metrics.Counter // interrupt-generation dummy reads
	Polls          metrics.Counter // polling iterations
	ProtectedHits  metrics.Counter // guest accesses to the protected area
}

// Register adopts the mediator's counters into reg under "mediator.*"
// names labeled with the node. No-op on a nil registry.
func (s *Stats) Register(reg *metrics.Registry, node string) {
	l := metrics.L("node", node)
	reg.RegisterCounter("mediator.guest_commands", &s.GuestCommands, l)
	reg.RegisterCounter("mediator.passed_through", &s.PassedThrough, l)
	reg.RegisterCounter("mediator.redirects", &s.Redirects, l)
	reg.RegisterCounter("mediator.redirect_bytes", &s.RedirectBytes, l)
	reg.RegisterCounter("mediator.inserted", &s.Inserted, l)
	reg.RegisterCounter("mediator.inserted_bytes", &s.InsertedBytes, l)
	reg.RegisterCounter("mediator.queued_commands", &s.QueuedCommands, l)
	reg.RegisterCounter("mediator.dummy_restarts", &s.DummyRestarts, l)
	reg.RegisterCounter("mediator.polls", &s.Polls, l)
	reg.RegisterCounter("mediator.protected_hits", &s.ProtectedHits, l)
}
