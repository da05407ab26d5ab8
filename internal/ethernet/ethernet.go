// Package ethernet models a switched Ethernet segment: full-duplex links
// with bandwidth, propagation delay and MTU (including 9000-byte jumbo
// frames as in the paper's testbed), a static-table store-and-forward
// switch, and deterministic loss injection for exercising AoE
// retransmission.
package ethernet

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// MAC is a link-layer address.
type MAC uint64

// Broadcast is the all-stations address.
const Broadcast MAC = 0xFFFFFFFFFFFF

func (m MAC) String() string { return fmt.Sprintf("%012x", uint64(m)) }

// HeaderSize is the Ethernet frame header size in bytes (dest, src,
// ethertype) plus FCS.
const HeaderSize = 18

// Frame is a link-layer frame. Payload carries the upper-layer message by
// reference; Size is the wire size in bytes including headers, which drives
// serialization timing and MTU checks.
//
// Frames may be pooled: a sender that recycles frames calls InitRef before
// transmitting, and every hop that consumes a reference (drop on a faulty
// link, MAC filter, final receiver) calls Release. Duplication and switch
// flooding Retain extra references, so a frame returns to its owner exactly
// once, after the last copy is consumed. Frames that never call InitRef are
// unmanaged: Retain/Release are no-ops and the collector reclaims them.
type Frame struct {
	Src, Dst  MAC
	EtherType uint16
	Payload   any
	Size      int64

	// Observability metadata, not part of the wire image: FlowID carries
	// the originating trace-span ID across the network so the receiver can
	// link its span back to the sender's; QueuedAt is stamped when the
	// frame enters a server queue so service code can attribute the wait.
	// Both travel with the frame through pooling; senders overwrite them
	// on reuse (a pool Get does not clear them).
	FlowID   int64
	QueuedAt sim.Time

	owner FrameOwner
	refs  int32
}

// FrameOwner recycles frames whose reference count reaches zero.
type FrameOwner interface{ ReleaseFrame(f *Frame) }

// InitRef marks the frame as owned with a single outstanding reference.
// The sender calls it immediately before handing the frame to the wire.
func (f *Frame) InitRef(owner FrameOwner) { f.owner, f.refs = owner, 1 }

// Retain adds a reference to a managed frame (no-op when unmanaged).
// The count is plain: copies of one frame fanned out across shard domains
// (switch flood) are released on the one goroutine that runs every domain.
func (f *Frame) Retain() {
	if f.owner != nil {
		f.refs++
	}
}

// Release drops one reference; the last release returns the frame to its
// owner. Callers must not touch the frame afterwards. Safe on nil and on
// unmanaged frames.
func (f *Frame) Release() {
	if f == nil || f.owner == nil {
		return
	}
	f.refs--
	if f.refs > 0 {
		return
	}
	if f.refs < 0 {
		panic("ethernet: frame released more times than retained")
	}
	o := f.owner
	f.owner = nil
	o.ReleaseFrame(f)
}

// Port receives frames from the segment.
type Port interface {
	Deliver(f *Frame)
}

// LinkParams describe one full-duplex link.
type LinkParams struct {
	Bandwidth   float64      // bits per second
	Propagation sim.Duration // one-way propagation delay
	MTU         int64        // max frame size in bytes (incl. headers)
	LossRate    float64      // fraction of frames dropped, per direction
}

// GigabitJumbo returns the paper's testbed link: gigabit Ethernet with a
// 9000-byte MTU.
func GigabitJumbo() LinkParams {
	return LinkParams{Bandwidth: 1e9, Propagation: 2 * sim.Microsecond, MTU: 9018}
}

// Gigabit returns a standard-MTU gigabit link.
func Gigabit() LinkParams {
	return LinkParams{Bandwidth: 1e9, Propagation: 2 * sim.Microsecond, MTU: 1518}
}

// TenGigabitJumbo returns a 10 GbE jumbo-frame link.
func TenGigabitJumbo() LinkParams {
	return LinkParams{Bandwidth: 10e9, Propagation: 2 * sim.Microsecond, MTU: 9018}
}

// FaultParams are the injectable impairments of one link direction beyond
// the base LossRate: carrier loss and probabilistic frame corruption,
// duplication, and reordering. All randomness draws from the kernel's
// seeded source, so the same seed and fault schedule replay identically.
type FaultParams struct {
	// Down models carrier loss: every frame is dropped at the transmitter.
	Down bool
	// CorruptRate is the fraction of frames whose FCS check fails at the
	// receiving end: the frame consumes full wire time but is discarded on
	// arrival (unlike LossRate, which drops at the transmitter).
	CorruptRate float64
	// DuplicateRate is the fraction of frames delivered twice (the second
	// copy one propagation delay later), exercising receiver dedup.
	DuplicateRate float64
	// ReorderRate is the fraction of frames held back by a random multiple
	// of their own serialization time, so back-to-back frames overtake them.
	ReorderRate float64
}

// direction models one direction of a link: a serializing transmitter.
type direction struct {
	k         *sim.Kernel
	p         LinkParams
	f         FaultParams
	busyUntil sim.Time
	wire      *sim.Stream[arrival] // frames in flight, by arrival time
	dropped   metrics.Counter
	delivered metrics.Counter
	bytes     metrics.Counter // bytes serialized (delivered frames only)
	corrupted metrics.Counter // frames discarded by the receiver FCS check
	dups      metrics.Counter // frames delivered twice
	reordered metrics.Counter // frames held back past their slot
}

// arrival is one frame in flight toward a port.
type arrival struct {
	port Port
	f    *Frame
}

// newDirection returns an idle direction whose frames arrive through
// its wire stream.
func newDirection(k *sim.Kernel, p LinkParams) *direction {
	return &direction{k: k, p: p, wire: sim.NewStream(k, func(a arrival) { a.port.Deliver(a.f) })}
}

// transmit schedules delivery of f to port after serialization and
// propagation, honoring MTU, loss rate, and injected faults. It reports
// the time the frame finishes serializing (even if lost).
func (d *direction) transmit(f *Frame, port Port) sim.Time {
	if f.Size > d.p.MTU {
		panic(fmt.Sprintf("ethernet: frame size %d exceeds MTU %d", f.Size, d.p.MTU))
	}
	if d.f.Down {
		d.dropped.Inc()
		f.Release()
		return d.k.Now()
	}
	start := d.k.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	ser := sim.Duration(float64(f.Size*8) / d.p.Bandwidth * float64(sim.Second))
	done := start.Add(ser)
	d.busyUntil = done
	if d.p.LossRate > 0 && d.k.Rand().Float64() < d.p.LossRate {
		d.dropped.Inc()
		f.Release()
		return done
	}
	at := done.Add(d.p.Propagation)
	if d.f.CorruptRate > 0 && d.k.Rand().Float64() < d.f.CorruptRate {
		// The frame occupies the wire but fails the FCS check on arrival;
		// nothing is delivered.
		d.corrupted.Inc()
		f.Release()
		return done
	}
	if d.f.ReorderRate > 0 && d.k.Rand().Float64() < d.f.ReorderRate {
		// Hold the frame back a few frame-times so later frames overtake it.
		d.reordered.Inc()
		at = at.Add(ser * sim.Duration(1+d.k.Rand().Int63n(4)))
	}
	d.delivered.Inc()
	d.bytes.Add(f.Size)
	d.wire.At(at, arrival{port, f})
	if d.f.DuplicateRate > 0 && d.k.Rand().Float64() < d.f.DuplicateRate {
		d.dups.Inc()
		f.Retain() // the second copy is an extra reference for the receiver
		d.wire.At(at.Add(d.p.Propagation), arrival{port, f})
	}
	return done
}

// Link is a full-duplex point-to-point link between a station and a switch
// (or another station).
type Link struct {
	a2b, b2a *direction
	aPort    Port // station side
	bPort    Port // switch side
}

// NewLink creates a link with the given parameters on both directions.
func NewLink(k *sim.Kernel, p LinkParams) *Link {
	return &Link{
		a2b: newDirection(k, p),
		b2a: newDirection(k, p),
	}
}

// AttachA sets the station-side port (receives frames travelling B→A).
func (l *Link) AttachA(p Port) { l.aPort = p }

// AttachB sets the switch-side port (receives frames travelling A→B).
func (l *Link) AttachB(p Port) { l.bPort = p }

// SendFromA transmits a frame from the A side toward B.
func (l *Link) SendFromA(f *Frame) {
	if l.bPort == nil {
		panic("ethernet: link B side not attached")
	}
	l.a2b.transmit(f, l.bPort)
}

// SendFromB transmits a frame from the B side toward A.
func (l *Link) SendFromB(f *Frame) {
	if l.aPort == nil {
		panic("ethernet: link A side not attached")
	}
	l.b2a.transmit(f, l.aPort)
}

// MTU reports the link MTU in bytes.
func (l *Link) MTU() int64 { return l.a2b.p.MTU }

// SetLossRate changes the frame loss rate on both directions.
func (l *Link) SetLossRate(r float64) {
	l.a2b.p.LossRate = r
	l.b2a.p.LossRate = r
}

// Dir selects one direction of a link for asymmetric fault injection.
type Dir int

// Link directions: A is the station side, B the switch side.
const (
	DirBoth Dir = iota
	DirA2B      // station → switch ("tx")
	DirB2A      // switch → station ("rx")
)

func (d Dir) String() string {
	switch d {
	case DirA2B:
		return "tx"
	case DirB2A:
		return "rx"
	default:
		return "both"
	}
}

// dirs returns the direction structs selected by d.
func (l *Link) dirs(d Dir) []*direction {
	switch d {
	case DirA2B:
		return []*direction{l.a2b}
	case DirB2A:
		return []*direction{l.b2a}
	default:
		return []*direction{l.a2b, l.b2a}
	}
}

// SetDown sets or clears carrier loss on the selected direction(s).
// DirA2B or DirB2A alone model an asymmetric partition: traffic flows one
// way but never the other.
func (l *Link) SetDown(d Dir, down bool) {
	for _, dir := range l.dirs(d) {
		dir.f.Down = down
	}
}

// Down reports whether any selected direction currently has carrier loss.
func (l *Link) Down(d Dir) bool {
	for _, dir := range l.dirs(d) {
		if dir.f.Down {
			return true
		}
	}
	return false
}

// SetCorruptRate sets the FCS-failure rate on the selected direction(s).
func (l *Link) SetCorruptRate(d Dir, r float64) {
	for _, dir := range l.dirs(d) {
		dir.f.CorruptRate = r
	}
}

// SetDuplicateRate sets the frame duplication rate on the selected
// direction(s).
func (l *Link) SetDuplicateRate(d Dir, r float64) {
	for _, dir := range l.dirs(d) {
		dir.f.DuplicateRate = r
	}
}

// SetReorderRate sets the frame reordering rate on the selected
// direction(s).
func (l *Link) SetReorderRate(d Dir, r float64) {
	for _, dir := range l.dirs(d) {
		dir.f.ReorderRate = r
	}
}

// Corrupted reports frames discarded by the receiver FCS check in both
// directions.
func (l *Link) Corrupted() int64 { return l.a2b.corrupted.Value() + l.b2a.corrupted.Value() }

// Duplicated reports frames delivered twice in both directions.
func (l *Link) Duplicated() int64 { return l.a2b.dups.Value() + l.b2a.dups.Value() }

// Reordered reports frames held back past their arrival slot in both
// directions.
func (l *Link) Reordered() int64 { return l.a2b.reordered.Value() + l.b2a.reordered.Value() }

// Dropped reports frames dropped in both directions.
func (l *Link) Dropped() int64 { return l.a2b.dropped.Value() + l.b2a.dropped.Value() }

// Delivered reports frames delivered in both directions.
func (l *Link) Delivered() int64 { return l.a2b.delivered.Value() + l.b2a.delivered.Value() }

// Bytes reports bytes carried by delivered frames in both directions.
func (l *Link) Bytes() int64 { return l.a2b.bytes.Value() + l.b2a.bytes.Value() }

// Instrument registers the link's per-direction frame, byte, and drop
// counters into reg under the given link name ("tx" is station→switch,
// "rx" the reverse). No-op on a nil registry.
func (l *Link) Instrument(reg *metrics.Registry, name string) {
	for dir, d := range map[string]*direction{"tx": l.a2b, "rx": l.b2a} {
		reg.RegisterCounter("ethernet.frames", &d.delivered, metrics.L("link", name), metrics.L("dir", dir))
		reg.RegisterCounter("ethernet.bytes", &d.bytes, metrics.L("link", name), metrics.L("dir", dir))
		reg.RegisterCounter("ethernet.dropped", &d.dropped, metrics.L("link", name), metrics.L("dir", dir))
		reg.RegisterCounter("ethernet.corrupted", &d.corrupted, metrics.L("link", name), metrics.L("dir", dir))
		reg.RegisterCounter("ethernet.duplicated", &d.dups, metrics.L("link", name), metrics.L("dir", dir))
		reg.RegisterCounter("ethernet.reordered", &d.reordered, metrics.L("link", name), metrics.L("dir", dir))
	}
}

// Switch is a store-and-forward Ethernet switch with a static forwarding
// table. Every station registers its MACs when it connects (the builder
// knows the whole topology), so the switch learns nothing: a frame for a
// registered MAC goes out that station's port, a broadcast or a frame for
// an unregistered MAC floods to every port but the ingress, and a frame
// whose destination sits behind its own ingress port (a hairpin) is
// dropped.
//
// Each station's link lives entirely on the station's kernel, so both
// directions serialize on the station's clock. The switch hop is one
// PostDeliver at now+latency from the sender's kernel to the egress
// station's kernel: a local event when both stations share a kernel, a
// cross-domain post when they sit in different ShardSet domains
// (DESIGN.md §13). Forwarding decisions run on the sender's kernel, which
// is deterministic because the table is immutable once stations connect.
type Switch struct {
	k       *sim.Kernel
	name    string
	latency sim.Duration
	ports   []*stationPort
	table   map[MAC]*stationPort
}

// NewSwitch returns a switch with the given store-and-forward latency.
// Stations attached with Connect run on k.
func NewSwitch(k *sim.Kernel, name string, latency sim.Duration) *Switch {
	return &Switch{k: k, name: name, latency: latency, table: make(map[MAC]*stationPort)}
}

// Connect attaches a new link for a station running on the switch's
// kernel, registers the station's MACs, and returns the link; the caller
// attaches its station to the A side.
func (s *Switch) Connect(p LinkParams, macs ...MAC) *Link {
	return s.ConnectOn(s.k, p, macs...)
}

// ConnectOn is Connect for a station running on kernel k, which may be
// another domain of the switch kernel's ShardSet. Stations must connect
// during build, before the simulation runs.
func (s *Switch) ConnectOn(k *sim.Kernel, p LinkParams, macs ...MAC) *Link {
	l := NewLink(k, p)
	sp := &stationPort{sw: s, k: k, link: l}
	l.AttachB(sp)
	s.ports = append(s.ports, sp)
	for _, m := range macs {
		s.table[m] = sp
	}
	return l
}

// stationPort is one station attachment. It is both the link's B-side
// Port (ingress: runs on the sending station's kernel) and the switch
// hop's delivery handler (egress: runs on the receiving station's
// kernel).
type stationPort struct {
	sw   *Switch
	k    *sim.Kernel
	link *Link
}

// Deliver forwards an ingress frame: one PostDeliver per egress port,
// timestamped with the forwarding latency. Each egress consumes one frame
// reference, so flooding to n ports retains n-1 extra; a frame with no
// egress (a hairpin, or a single-port switch) is released here.
func (sp *stationPort) Deliver(f *Frame) {
	sw := sp.sw
	at := sp.k.Now().Add(sw.latency)
	if f.Dst != Broadcast {
		if out, ok := sw.table[f.Dst]; ok {
			if out == sp {
				f.Release()
				return
			}
			sp.k.PostDeliver(out.k, at, out, f)
			return
		}
	}
	n := len(sw.ports) - 1 // flood: every port but the ingress
	if n == 0 {
		f.Release()
		return
	}
	for i := 1; i < n; i++ {
		//bmcast:allow framebalance flood holds n refs total; the post loop below hands off exactly n
		f.Retain()
	}
	for _, out := range sw.ports {
		if out != sp {
			sp.k.PostDeliver(out.k, at, out, f)
		}
	}
}

// XDeliver completes the switch hop on the receiving station's kernel:
// the frame starts serializing toward the station (B→A).
func (sp *stationPort) XDeliver(payload any) {
	sp.link.SendFromB(payload.(*Frame))
}
