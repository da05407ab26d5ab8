package io

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// regbank is a trivial register file for tests.
type regbank struct {
	regs map[int64]uint64
}

func newRegbank() *regbank { return &regbank{regs: make(map[int64]uint64)} }

func (b *regbank) IORead(off int64, _ int) uint64 { return b.regs[off] }
func (b *regbank) IOWrite(off int64, _ int, v uint64) {
	b.regs[off] = v
}

func TestRegisterAndRoute(t *testing.T) {
	s := NewSpace(sim.New(1))
	b := newRegbank()
	s.Register("ide", PIO, 0x1F0, 8, b)
	s.Write(nil, nil, PIO, 0x1F2, 1, 42)
	if got := s.Read(nil, nil, PIO, 0x1F2, 1); got != 42 {
		t.Fatalf("Read = %d, want 42", got)
	}
	if b.regs[2] != 42 {
		t.Fatal("write not routed to region-relative offset")
	}
}

func TestUnmappedAccess(t *testing.T) {
	s := NewSpace(sim.New(1))
	if got := s.Read(nil, nil, PIO, 0x9999, 1); got != 0xFF {
		t.Fatalf("unmapped 1-byte read = %#x, want 0xFF", got)
	}
	if got := s.Read(nil, nil, MMIO, 0x9999, 4); got != 0xFFFFFFFF {
		t.Fatalf("unmapped 4-byte read = %#x, want 0xFFFFFFFF", got)
	}
	s.Write(nil, nil, PIO, 0x9999, 1, 1) // must not panic
}

func TestOverlapPanics(t *testing.T) {
	s := NewSpace(sim.New(1))
	s.Register("a", PIO, 0x100, 0x10, newRegbank())
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping registration did not panic")
		}
	}()
	s.Register("b", PIO, 0x108, 0x10, newRegbank())
}

func TestPIOandMMIOSeparate(t *testing.T) {
	s := NewSpace(sim.New(1))
	pio := newRegbank()
	mmio := newRegbank()
	s.Register("p", PIO, 0x100, 8, pio)
	s.Register("m", MMIO, 0x100, 8, mmio) // same base, different kind: fine
	s.Write(nil, nil, PIO, 0x100, 1, 1)
	s.Write(nil, nil, MMIO, 0x100, 1, 2)
	if pio.regs[0] != 1 || mmio.regs[0] != 2 {
		t.Fatal("PIO and MMIO spaces not independent")
	}
}

// countingTap intercepts writes, letting reads pass through.
type countingTap struct {
	reads, writes int
	swallowWrites bool
	cost          sim.Duration // the exit's cost, charged per trap
	traps         int
}

func (c *countingTap) Trap(*Region) sim.Duration {
	c.traps++
	return c.cost
}

func (c *countingTap) TapRead(_ *Region, _ int64, _ int, _ *trace.Span) (uint64, bool) {
	c.reads++
	return 0, false
}

func (c *countingTap) TapWrite(_ *Region, _ int64, _ int, _ uint64, _ *trace.Span) bool {
	c.writes++
	return c.swallowWrites
}

func TestTapInterception(t *testing.T) {
	s := NewSpace(sim.New(1))
	b := newRegbank()
	s.Register("dev", MMIO, 0x1000, 0x100, b)
	tap := &countingTap{swallowWrites: true}
	s.SetTap("dev", tap)

	s.Write(nil, nil, MMIO, 0x1000, 4, 99)
	if tap.writes != 1 {
		t.Fatal("tap did not see the write")
	}
	if b.regs[0] == 99 {
		t.Fatal("swallowed write reached the device")
	}
	s.Read(nil, nil, MMIO, 0x1000, 4)
	if tap.reads != 1 {
		t.Fatal("tap did not see the read")
	}
	if s.Traps != 2 {
		t.Fatalf("Traps = %d, want 2", s.Traps)
	}
}

func TestTapPassThrough(t *testing.T) {
	s := NewSpace(sim.New(1))
	b := newRegbank()
	s.Register("dev", PIO, 0, 8, b)
	s.SetTap("dev", &countingTap{swallowWrites: false})
	s.Write(nil, nil, PIO, 0, 1, 7)
	if b.regs[0] != 7 {
		t.Fatal("unhandled write did not pass through to the device")
	}
}

func TestDetapRestoresDirectAccess(t *testing.T) {
	s := NewSpace(sim.New(1))
	b := newRegbank()
	s.Register("dev", PIO, 0, 8, b)
	tap := &countingTap{}
	s.SetTap("dev", tap)
	s.Read(nil, nil, PIO, 0, 1)
	s.SetTap("dev", nil) // de-virtualization
	if s.Tapped("dev") {
		t.Fatal("Tapped after removal")
	}
	s.Read(nil, nil, PIO, 0, 1)
	if tap.reads != 1 {
		t.Fatal("tap saw access after removal")
	}
	if s.Direct != 1 {
		t.Fatalf("Direct = %d, want 1", s.Direct)
	}
}

func TestDeviceBypassesTap(t *testing.T) {
	s := NewSpace(sim.New(1))
	b := newRegbank()
	r := s.Register("dev", PIO, 0, 8, b)
	tap := &countingTap{}
	s.SetTap("dev", tap)
	// VMM-side access through Device() must not trap.
	r.Device().IOWrite(3, 1, 5)
	if tap.writes != 0 {
		t.Fatal("device-side access trapped")
	}
	if b.regs[3] != 5 {
		t.Fatal("device-side write lost")
	}
}

func TestLookupAndFind(t *testing.T) {
	s := NewSpace(sim.New(1))
	s.Register("a", PIO, 0x100, 8, newRegbank())
	s.Register("b", PIO, 0x200, 8, newRegbank())
	if s.Lookup("b") == nil || s.Lookup("c") != nil {
		t.Fatal("Lookup wrong")
	}
	if r := s.Find(PIO, 0x204); r == nil || r.Name != "b" {
		t.Fatalf("Find(0x204) = %v", r)
	}
	if s.Find(PIO, 0x208) != nil {
		t.Fatal("Find past region end should be nil")
	}
	if len(s.Regions()) != 2 {
		t.Fatal("Regions() wrong length")
	}
}

func TestIRQDelivery(t *testing.T) {
	k := sim.New(1)
	q := NewIRQ(k, "ide")
	fired := 0
	q.SetHandler(func() { fired++ })
	q.Raise()
	q.Raise()
	k.Run()
	if fired != 2 || q.Raised != 2 {
		t.Fatalf("fired=%d Raised=%d, want 2/2", fired, q.Raised)
	}
}

func TestIRQWithoutHandler(t *testing.T) {
	k := sim.New(1)
	q := NewIRQ(k, "x")
	q.Raise() // must not panic
	k.Run()
	if q.Raised != 1 {
		t.Fatal("Raised not counted")
	}
}

// TestTrappedAccessStalls pins the cost of a trap: a guest context
// stalls for the exit's cost before the access takes effect, through the
// blocking Write and its callback form alike, while interrupt context and
// untapped regions never stall.
func TestTrappedAccessStalls(t *testing.T) {
	k := sim.New(1)
	s := NewSpace(k)
	b := newRegbank()
	s.Register("dev", PIO, 0, 8, b)
	s.Register("raw", PIO, 8, 8, newRegbank())
	tap := &countingTap{cost: 1200 * sim.Nanosecond}
	s.SetTap("dev", tap)

	var at sim.Time
	if s.WriteAsync(PIO, 0, 1, 7, nil, func() { at = k.Now() }) {
		t.Fatal("a trapped write took effect at once")
	}
	if b.regs[0] == 7 {
		t.Fatal("a trapped write took effect before its exit's cost elapsed")
	}
	k.Run()
	if at != sim.Time(1200) || b.regs[0] != 7 {
		t.Fatalf("trapped write completed at %v with value %d, want at 1200 with 7", at, b.regs[0])
	}
	if !s.WriteAsync(PIO, 8, 1, 1, nil, nil) {
		t.Fatal("an untapped write stalled")
	}
	s.Write(nil, nil, PIO, 1, 1, 9) // interrupt context
	if b.regs[1] != 9 || k.Now() != 1200 {
		t.Fatal("an interrupt-context write stalled")
	}

	var got uint64
	k.Spawn("guest", func(p *sim.Proc) {
		s.Write(p, nil, PIO, 2, 1, 5)
		got = s.Read(p, nil, PIO, 2, 1)
	})
	k.Run()
	if got != 5 || k.Now() != 3600 || tap.traps != 4 {
		t.Fatalf("blocking write and read: got %d at %v after %d traps, want 5 at 3600 after 4", got, k.Now(), tap.traps)
	}

	// A tap removed while an access stalls still handles that access, as
	// the trap handler already running would.
	tap.swallowWrites = true
	s.WriteAsync(PIO, 3, 1, 4, nil, func() {})
	s.SetTap("dev", nil)
	k.Run()
	if b.regs[3] == 4 || tap.writes != 4 {
		t.Fatalf("write stalled across detach: reg=%d tap writes=%d, want swallowed by the tap", b.regs[3], tap.writes)
	}
}
