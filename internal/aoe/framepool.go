package aoe

import (
	"repro/internal/ethernet"
	"repro/internal/hw/disk"
)

// FramePool recycles paired Frame+Message records for one AoE endpoint.
// Senders take a pair with Get, fill in the message and frame fields, and
// transmit; the frame rides the wire ref-counted (see ethernet.Frame) and
// returns here when the last reference — the receiver, or a drop point —
// releases it. A deployment streams millions of fragments through a single
// initiator/target pair, so recycling these two records removes the
// dominant per-fragment allocations.
//
// A pool needs no lock: every shard domain runs on the goroutine driving
// its ShardSet (DESIGN.md §13), so a peer domain that releases a frame
// does so on the same goroutine as the Get. Get zeroes the pair, so
// free-list order never affects simulation output.
type FramePool struct {
	free []*framePair
}

// framePair is one recyclable frame with its embedded message payload.
type framePair struct {
	pool  *FramePool
	frame ethernet.Frame
	msg   Message
}

// ReleaseFrame implements ethernet.FrameOwner: the pair returns to its
// pool. The payload source is dropped immediately so a recycled pair never
// pins sector data for the GC.
func (fp *framePair) ReleaseFrame(*ethernet.Frame) {
	fp.msg.Payload = disk.Payload{}
	fp.pool.free = append(fp.pool.free, fp)
}

// Get returns a zeroed frame/message pair with the frame's payload already
// pointing at the message and one reference outstanding. The caller fills
// in addressing and header fields and hands the frame to a transport.
func (p *FramePool) Get() (*ethernet.Frame, *Message) {
	var fp *framePair
	if n := len(p.free) - 1; n >= 0 {
		fp = p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		fp.frame = ethernet.Frame{}
		fp.msg = Message{}
	} else {
		fp = &framePair{pool: p}
	}
	fp.frame.Payload = &fp.msg
	fp.frame.InitRef(fp)
	return &fp.frame, &fp.msg
}
