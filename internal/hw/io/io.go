// Package io models the machine's I/O register space: PIO ports and MMIO
// regions exposed by devices, with interception taps.
//
// A tap is the simulation's equivalent of a VM exit on a trapped register
// access: while BMcast virtualizes, its device mediators install taps on
// the storage controller regions (PIO exits, or EPT-unmapped MMIO pages);
// de-virtualization removes the taps, after which guest accesses reach the
// device directly with zero added cost — exactly the paper's "all hardware
// accesses pass through the VMM" end state.
package io

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Kind distinguishes port I/O from memory-mapped I/O.
type Kind int

const (
	// PIO is x86 port-mapped I/O (IN/OUT instructions).
	PIO Kind = iota
	// MMIO is memory-mapped I/O.
	MMIO
)

func (k Kind) String() string {
	if k == PIO {
		return "pio"
	}
	return "mmio"
}

// Handler is a device's register bank. A register access takes no
// simulated time of its own.
type Handler interface {
	// IORead returns the value of the size-byte register at off.
	IORead(off int64, size int) uint64
	// IOWrite stores v into the size-byte register at off.
	IOWrite(off int64, size int, v uint64)
}

// Tap intercepts accesses to a region, as a VMM trap handler would. A
// trapped access first charges its VM exit (Trap); the guest context that
// made it stalls for the exit's cost, and then the tap's TapRead or
// TapWrite takes effect. A tap that reports handled=false passes the
// access through to the device. cause is the accessing context's causal
// span.
type Tap interface {
	// Trap charges the VM exit of an access to r and returns its cost.
	Trap(r *Region) sim.Duration
	// TapRead intercepts a register read.
	TapRead(r *Region, off int64, size int, cause *trace.Span) (v uint64, handled bool)
	// TapWrite intercepts a register write.
	TapWrite(r *Region, off int64, size int, v uint64, cause *trace.Span) (handled bool)
}

// Region is a registered range of the I/O space.
type Region struct {
	Name    string
	Kind    Kind
	Base    int64
	Size    int64
	handler Handler
	tap     Tap
}

func (r *Region) String() string {
	return fmt.Sprintf("%s %s [%#x,+%#x)", r.Name, r.Kind, r.Base, r.Size)
}

// Device performs an untapped access directly against the device handler.
// VMM-side code uses it: the hypervisor's own device accesses do not trap.
func (r *Region) Device() Handler { return r.handler }

// Space is the I/O address space of one machine. PIO and MMIO live in
// separate address ranges.
type Space struct {
	k       *sim.Kernel
	regions [2][]*Region // indexed by Kind, sorted by Base
	free    *access      // pooled access records

	// Traps counts tapped accesses (≈ VM exits due to I/O) and Direct
	// counts untapped guest accesses.
	Traps  int64
	Direct int64
}

// NewSpace returns an empty I/O space whose trapped accesses stall on
// kernel k.
func NewSpace(k *sim.Kernel) *Space { return &Space{k: k} }

// Register adds a region backed by h. Overlapping regions of the same kind
// panic.
func (s *Space) Register(name string, kind Kind, base, size int64, h Handler) *Region {
	if size <= 0 {
		panic("io: region size must be positive")
	}
	r := &Region{Name: name, Kind: kind, Base: base, Size: size, handler: h}
	list := s.regions[kind]
	for _, other := range list {
		if base < other.Base+other.Size && other.Base < base+size {
			panic(fmt.Sprintf("io: region %v overlaps %v", r, other))
		}
	}
	list = append(list, r)
	sort.Slice(list, func(i, j int) bool { return list[i].Base < list[j].Base })
	s.regions[kind] = list
	return r
}

// Find locates the region of the given kind containing addr, or nil.
func (s *Space) Find(kind Kind, addr int64) *Region {
	list := s.regions[kind]
	i := sort.Search(len(list), func(i int) bool { return list[i].Base+list[i].Size > addr })
	if i < len(list) && addr >= list[i].Base {
		return list[i]
	}
	return nil
}

// Lookup returns the region registered under name, or nil.
func (s *Space) Lookup(name string) *Region {
	for _, list := range s.regions {
		for _, r := range list {
			if r.Name == name {
				return r
			}
		}
	}
	return nil
}

// SetTap installs (or, with nil, removes) a tap on the named region. It
// panics if the region does not exist.
func (s *Space) SetTap(name string, t Tap) {
	r := s.Lookup(name)
	if r == nil {
		panic("io: SetTap on unknown region " + name)
	}
	r.tap = t
}

// Tapped reports whether the named region currently has a tap.
func (s *Space) Tapped(name string) bool {
	r := s.Lookup(name)
	return r != nil && r.tap != nil
}

// access is one guest register access. An access to an untapped region
// takes effect at once. A trapped access from interrupt context is
// charged its VM exit but does not stall; from a guest context it stalls
// for the exit's cost as one After, in the slot a process sleeping
// through the exit took, and then takes effect and continues its caller:
// a WriteAsync callback, or the blocking caller parked in Read or Write.
// Records are pooled per space and their step is bound once, so an
// access allocates nothing.
type access struct {
	s     *Space
	r     *Region
	tap   Tap // the region's tap when the access trapped
	off   int64
	size  int
	write bool
	v     uint64 // the value written, or read
	cause *trace.Span
	wrote func()    // callback continuation of a write
	p     *sim.Proc // blocking caller
	fire  func()    // cached stalled step
	next  *access   // free list link
}

func (s *Space) newAccess(size int, write bool, v uint64, cause *trace.Span) *access {
	a := s.free
	if a == nil {
		a = &access{s: s}
		a.fire = a.stalled
	} else {
		s.free = a.next
	}
	a.size, a.write, a.v, a.cause = size, write, v, cause
	return a
}

func (a *access) release() {
	s := a.s
	a.r, a.tap, a.cause, a.wrote, a.p = nil, nil, nil, nil, nil
	a.next, s.free = s.free, a
}

// start runs an access up to its stall. It reports true if the access
// took effect at once (a read's value is in a.v), false if it stalls for
// its exit's cost; intr marks interrupt context, which never stalls.
func (a *access) start(kind Kind, addr int64, intr bool) bool {
	s := a.s
	r := s.Find(kind, addr)
	if r == nil {
		// Reads of unimplemented registers float high, as on real buses;
		// writes are ignored.
		if !a.write {
			a.v = (1 << (8 * uint(a.size))) - 1
		}
		return true
	}
	a.r, a.off = r, addr-r.Base
	if r.tap == nil {
		s.Direct++
		a.apply()
		return true
	}
	s.Traps++
	a.tap = r.tap
	stall := a.tap.Trap(r)
	if intr {
		a.apply()
		return true
	}
	s.k.After(stall, a.fire)
	return false
}

// apply makes the access take effect: the tap's handling, if it trapped,
// then the device unless the tap handled it.
func (a *access) apply() {
	if a.write {
		if a.tap != nil && a.tap.TapWrite(a.r, a.off, a.size, a.v, a.cause) {
			return
		}
		a.r.handler.IOWrite(a.off, a.size, a.v)
		return
	}
	if a.tap != nil {
		if v, handled := a.tap.TapRead(a.r, a.off, a.size, a.cause); handled {
			a.v = v
			return
		}
	}
	a.v = a.r.handler.IORead(a.off, a.size)
}

// stalled ends a trapped access's stall: the access takes effect and its
// caller continues inline.
func (a *access) stalled() {
	a.apply()
	if a.p != nil {
		a.p.Resume() // the blocking caller takes the result and the record
		return
	}
	wrote := a.wrote
	a.release()
	wrote()
}

// WriteAsync performs a guest write of the size-byte register at addr in
// callback form, for a guest context whose causal span is cause. It
// reports true if the write took effect at once, and done is not called;
// a trapped write returns false, and done runs once the exit's cost has
// elapsed.
func (s *Space) WriteAsync(kind Kind, addr int64, size int, v uint64, cause *trace.Span, done func()) bool {
	a := s.newAccess(size, true, v, cause)
	a.wrote = done
	if !a.start(kind, addr, false) {
		return false
	}
	a.release()
	return true
}

// Read performs a guest read of the size-byte register at addr for the
// process p, parked while a trap stalls it; cause is the process's
// causal span, handed to the tap. A nil p reads from interrupt context,
// with a nil cause.
func (s *Space) Read(p *sim.Proc, cause *trace.Span, kind Kind, addr int64, size int) uint64 {
	a := s.newAccess(size, false, 0, cause)
	a.await(p, kind, addr)
	v := a.v
	a.release()
	return v
}

// Write performs a guest write of the size-byte register at addr for the
// process p, parked while a trap stalls it; cause is the process's
// causal span, handed to the tap. A nil p writes from interrupt context,
// with a nil cause.
func (s *Space) Write(p *sim.Proc, cause *trace.Span, kind Kind, addr int64, size int, v uint64) {
	a := s.newAccess(size, true, v, cause)
	a.await(p, kind, addr)
	a.release()
}

// await runs the access for p, parking it while the access stalls.
func (a *access) await(p *sim.Proc, kind Kind, addr int64) {
	a.p = p
	if !a.start(kind, addr, p == nil) {
		p.Suspend()
	}
}

// Regions returns every registered region, PIO first, sorted by base.
func (s *Space) Regions() []*Region {
	var out []*Region
	out = append(out, s.regions[PIO]...)
	out = append(out, s.regions[MMIO]...)
	return out
}

// IRQ is a device interrupt line. BMcast does not virtualize interrupt
// controllers, so interrupts always reach the guest's registered handler
// directly; mediators instead make the device suppress interrupt
// generation when needed (paper §3.2).
type IRQ struct {
	k       *sim.Kernel
	Name    string
	handler func()
	Raised  int64
}

// NewIRQ returns an interrupt line delivered through kernel k.
func NewIRQ(k *sim.Kernel, name string) *IRQ { return &IRQ{k: k, Name: name} }

// SetHandler installs the guest's interrupt handler.
func (q *IRQ) SetHandler(fn func()) { q.handler = fn }

// Raise asserts the line; the handler runs as a scheduled event at the
// current instant.
func (q *IRQ) Raise() {
	q.Raised++
	if q.handler != nil {
		h := q.handler
		q.k.After(0, h)
	}
}
