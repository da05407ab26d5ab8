package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(1 << 20)
	data := []byte("hello, physical memory")
	m.Write(4090, data) // straddles a page boundary
	got := m.Read(4090, int64(len(data)))
	if !bytes.Equal(got, data) {
		t.Fatalf("Read = %q, want %q", got, data)
	}
}

func TestUntouchedReadsZero(t *testing.T) {
	m := New(1 << 20)
	got := m.Read(123456, 100)
	for _, b := range got {
		if b != 0 {
			t.Fatal("untouched memory not zero")
		}
	}
}

func TestReadSpanningWrittenAndUnwritten(t *testing.T) {
	m := New(1 << 20)
	m.Write(PageSize, []byte{1, 2, 3})
	got := m.Read(PageSize-2, 7)
	want := []byte{0, 0, 1, 2, 3, 0, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("Read = %v, want %v", got, want)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(1 << 20)
	for _, f := range []func(){
		func() { m.Read(1<<20-1, 2) },
		func() { m.Write(-1, []byte{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestReserveFromTop(t *testing.T) {
	m := New(16 << 20)
	r := m.Reserve(128*PageSize, "vmm")
	if r.End() != 16<<20 {
		t.Fatalf("reservation not at top: %v", r)
	}
	if r.Size != 128*PageSize {
		t.Fatalf("reservation size = %d", r.Size)
	}
	if m.UsableSize() != 16<<20-128*PageSize {
		t.Fatalf("usable = %d", m.UsableSize())
	}
}

func TestReserveStacks(t *testing.T) {
	m := New(16 << 20)
	r1 := m.Reserve(PageSize, "a")
	r2 := m.Reserve(PageSize, "b")
	if r2.End() != r1.Start {
		t.Fatalf("second reservation %v not directly below first %v", r2, r1)
	}
}

func TestReserveRoundsToPage(t *testing.T) {
	m := New(16 << 20)
	r := m.Reserve(100, "x")
	if r.Size != PageSize {
		t.Fatalf("size = %d, want one page", r.Size)
	}
}

func TestRelease(t *testing.T) {
	m := New(16 << 20)
	r := m.Reserve(PageSize, "vmm")
	if !m.Release(r) {
		t.Fatal("Release returned false for live reservation")
	}
	if m.UsableSize() != 16<<20 {
		t.Fatal("release did not restore usable memory")
	}
	if m.Release(r) {
		t.Fatal("double release returned true")
	}
}

func TestE820HidesReservation(t *testing.T) {
	m := New(16 << 20)
	r := m.Reserve(1<<20, "vmm")
	for _, u := range m.E820() {
		if u.Start < r.End() && r.Start < u.End() {
			t.Fatalf("usable region %v overlaps reservation %v", u, r)
		}
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Start: 100, Size: 50}
	if !r.Contains(100, 50) || !r.Contains(120, 10) {
		t.Fatal("Contains false negatives")
	}
	if r.Contains(99, 2) || r.Contains(149, 2) {
		t.Fatal("Contains false positives")
	}
}

func TestMemoryRoundTripProperty(t *testing.T) {
	m := New(1 << 20)
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := int64(off)
		m.Write(addr, data)
		return bytes.Equal(m.Read(addr, int64(len(data))), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScatterGather(t *testing.T) {
	m := New(1 << 16)
	sg := []Region{{Start: 0x2000, Size: 3}, {Start: 0x100, Size: 4}}
	m.Scatter(sg, []byte{1, 2, 3, 4, 5})
	if got := m.Read(0x2000, 4); !bytes.Equal(got, []byte{1, 2, 3, 0}) {
		t.Fatalf("first region = %v", got)
	}
	if got := m.Read(0x100, 4); !bytes.Equal(got, []byte{4, 5, 0, 0}) {
		t.Fatalf("second region = %v: Scatter must stop when data runs out", got)
	}
	if got := m.Gather([]byte{9}, sg, 10); !bytes.Equal(got, []byte{9, 1, 2, 3, 4, 5, 0, 0, 0, 0, 0}) {
		t.Fatalf("Gather = %v, want the prefix, 7 region bytes and zero padding", got)
	}
	if got := m.Gather(nil, sg, 2); !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("Gather = %v, want it to stop after 2 bytes", got)
	}
}
