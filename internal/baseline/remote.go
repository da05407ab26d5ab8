// Package baseline implements the systems BMcast is compared against in
// the paper's evaluation: image-copy deployment (§2, Fig 4), network boot
// with an NFS root (Fig 4, Fig 10), and a KVM instance with ELI-style
// exit-less interrupts, paravirtual (virtio) storage, and direct device
// assignment (Figs 4–13).
package baseline

import (
	"fmt"

	"repro/internal/hw/disk"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Protocol selects the remote-storage protocol model.
type Protocol int

// Remote storage protocols used by the baselines.
const (
	NFS Protocol = iota
	ISCSI
)

func (p Protocol) String() string {
	if p == ISCSI {
		return "iscsi"
	}
	return "nfs"
}

// RemoteStore models a network storage service (the NFS export or iSCSI
// target holding the OS image): per-request latency, a shared service
// rate, and a backing store. Concurrent clients contend for the rate.
type RemoteStore struct {
	k     *sim.Kernel
	Name  string
	Proto Protocol
	// ReqLatency is the per-request round-trip overhead (protocol
	// processing + network RTT). iSCSI's block-granular round trips make
	// it slower per request than NFS with readahead (the paper measures
	// KVM guest boot at 42 s over NFS vs 55 s over iSCSI).
	ReqLatency sim.Duration
	// Readahead marks a client-side cache/readahead layer (the KVM
	// host's NFS client) that hides part of the per-request latency.
	Readahead bool
	// Rate is the service bandwidth in bytes/sec (gigabit-limited).
	Rate float64

	store *disk.Store
	// link serializes transfers: chunked acquisition approximates fair
	// sharing when several instances deploy at once.
	link *sim.Resource
	free []*remoteOp // pooled request records

	BytesRead    metrics.Counter
	BytesWritten metrics.Counter
	Requests     metrics.Counter
}

// NewRemoteStore exports image via the given protocol.
func NewRemoteStore(k *sim.Kernel, name string, proto Protocol, img *disk.Image) *RemoteStore {
	rs := &RemoteStore{
		k:     k,
		Name:  name,
		Proto: proto,
		Rate:  100e6, // gigabit Ethernet payload rate
		store: disk.NewStore(img.Sectors),
		link:  sim.NewResource(k, name+".link", 1),
	}
	switch proto {
	case NFS:
		rs.ReqLatency = 1050 * sim.Microsecond
	case ISCSI:
		rs.ReqLatency = 1100 * sim.Microsecond
	}
	rs.store.Write(0, img.Sectors, img)
	return rs
}

// Sectors reports the exported capacity.
func (rs *RemoteStore) Sectors() int64 { return rs.store.Sectors() }

// Read fetches count sectors at lba, blocking for latency and bandwidth.
func (rs *RemoteStore) Read(p *sim.Proc, lba, count int64) (disk.Payload, error) {
	return rs.await(p, false, disk.Payload{LBA: lba, Count: count})
}

// Write stores count sectors at lba.
func (rs *RemoteStore) Write(p *sim.Proc, pl disk.Payload) error {
	_, err := rs.await(p, true, pl)
	return err
}

// await runs a request for the process p, parking p until it completes.
func (rs *RemoteStore) await(p *sim.Proc, write bool, pl disk.Payload) (disk.Payload, error) {
	o := rs.newOp(write, pl)
	o.p = p
	if !o.start() {
		p.Suspend()
	}
	got, err := o.got, o.err
	rs.putOp(o)
	return got, err
}

// start begins a read (write false) or a write of pl's range in callback
// form: done receives the content read, or the zero Payload for a write,
// and the outcome once the request completes. A request out of range
// completes before start returns.
func (rs *RemoteStore) start(write bool, pl disk.Payload, done func(disk.Payload, error)) {
	o := rs.newOp(write, pl)
	o.done = done
	if o.start() {
		got, err := o.got, o.err
		rs.putOp(o)
		done(got, err)
	}
}

// remoteStep is where a remote request's step function resumes.
type remoteStep uint8

const (
	remoteLatency remoteStep = iota // the request latency is over
	remoteChunk                     // take the link for the next chunk
	remoteSent                      // a chunk's wire time is over
)

// remoteOp is one request in flight. It runs as kernel callbacks: the
// request latency and each chunk's wire time are one After, and a wait
// for the shared link is one step, in the slots the blocked process's
// wakeups used to take. The link is taken chunk by chunk so concurrent
// clients interleave. Records are pooled per store and their steps bound
// once.
type remoteOp struct {
	rs     *RemoteStore
	write  bool
	pl     disk.Payload // the range, and a write's content
	left   int64        // bytes still to move
	pc     remoteStep
	got    disk.Payload
	err    error
	done   func(disk.Payload, error) // callback issuer
	p      *sim.Proc                 // blocking issuer
	stepFn func()
	waiter *sim.Waiter // link waits
}

func (rs *RemoteStore) newOp(write bool, pl disk.Payload) *remoteOp {
	var o *remoteOp
	if n := len(rs.free) - 1; n >= 0 {
		o = rs.free[n]
		rs.free = rs.free[:n]
	} else {
		o = &remoteOp{rs: rs}
		o.stepFn = o.step
		o.waiter = rs.k.NewWaiter(o.woken)
	}
	o.write, o.pl, o.pc = write, pl, remoteLatency
	return o
}

func (rs *RemoteStore) putOp(o *remoteOp) {
	o.pl, o.got, o.err, o.done, o.p = disk.Payload{}, disk.Payload{}, nil, nil, nil
	rs.free = append(rs.free, o)
}

// start validates the request and schedules its latency. It reports true
// if the request completed at once.
func (o *remoteOp) start() bool {
	rs, pl := o.rs, o.pl
	if pl.LBA < 0 || pl.Count <= 0 || pl.LBA+pl.Count > rs.store.Sectors() {
		kind := "read"
		if o.write {
			kind = "write"
		}
		o.err = fmt.Errorf("baseline: remote %s [%d,+%d) out of range", kind, pl.LBA, pl.Count)
		return true
	}
	rs.Requests.Inc()
	lat := rs.ReqLatency
	if rs.Readahead && !o.write {
		lat /= 2 // the client cache absorbs about half the round trips
	}
	o.left = pl.Count * disk.SectorSize
	rs.k.After(lat, o.stepFn)
	return false
}

// woken retries the link after a release's wakeup.
func (o *remoteOp) woken(bool) { o.step() }

// step moves the request on until it waits or completes.
func (o *remoteOp) step() {
	const chunk = 1 << 20
	rs := o.rs
	for {
		switch o.pc {
		case remoteLatency:
			o.pc = remoteChunk
		case remoteChunk:
			if o.left <= 0 {
				o.finish()
				return
			}
			if !rs.link.AcquireWait(o.waiter) {
				return
			}
			o.pc = remoteSent
			rs.k.After(sim.RateDuration(min(o.left, chunk), rs.Rate), o.stepFn)
			return
		case remoteSent:
			rs.link.Release()
			o.left -= min(o.left, chunk)
			o.pc = remoteChunk
		}
	}
}

// finish stores or fetches the data and continues the issuer inline.
func (o *remoteOp) finish() {
	rs, pl := o.rs, o.pl
	if o.write {
		rs.store.Write(pl.LBA, pl.Count, pl.Source)
		rs.BytesWritten.Add(pl.Count * disk.SectorSize)
	} else {
		rs.BytesRead.Add(pl.Count * disk.SectorSize)
		o.got = rs.store.ReadPayload(pl.LBA, pl.Count)
	}
	if p := o.p; p != nil {
		p.Resume() // the blocking issuer takes the result and the record
		return
	}
	got, done := o.got, o.done
	rs.putOp(o)
	done(got, nil)
}

// Store exposes the backing store for verification.
func (rs *RemoteStore) Store() *disk.Store { return rs.store }
