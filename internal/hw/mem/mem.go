// Package mem models guest-physical memory for a simulated machine.
//
// BMcast identity-maps guest-physical to machine-physical addresses and
// reserves its own region by manipulating the BIOS memory map so the guest
// never allocates it (paper §3.4). This package provides exactly that: a
// sparse byte-addressable memory, region reservation from the top of RAM,
// and an e820-style map that hides reserved regions from the guest.
package mem

import (
	"fmt"
	"slices"
)

// PageSize is the allocation granularity of the sparse backing store.
const PageSize = 4096

// Region is a contiguous range of physical memory.
type Region struct {
	Start int64
	Size  int64
	Owner string
}

// End reports the first address past the region.
func (r Region) End() int64 { return r.Start + r.Size }

// Contains reports whether the address range [addr, addr+n) lies inside r.
func (r Region) Contains(addr, n int64) bool {
	return addr >= r.Start && addr+n <= r.End()
}

func (r Region) String() string {
	return fmt.Sprintf("[%#x-%#x) %s", r.Start, r.End(), r.Owner)
}

// Memory is sparse guest-physical memory. Pages materialize on first write;
// reads of untouched pages return zeros.
type Memory struct {
	size     int64
	pages    map[int64][]byte
	reserved []Region
}

// New returns a memory of the given size in bytes.
func New(size int64) *Memory {
	if size <= 0 || size%PageSize != 0 {
		panic("mem: size must be a positive multiple of the page size")
	}
	return &Memory{size: size, pages: make(map[int64][]byte)}
}

// Size reports total physical memory in bytes.
func (m *Memory) Size() int64 { return m.size }

// Contains reports whether the n bytes at addr lie inside memory.
func (m *Memory) Contains(addr, n int64) bool {
	return addr >= 0 && n >= 0 && addr <= m.size-n
}

// Reachable reports whether the first want bytes of sg's regions, the
// bytes Scatter and Gather would touch, lie inside memory. A device
// checks a guest-built scatter-gather list with it before moving data.
func (m *Memory) Reachable(sg []Region, want int64) bool {
	for _, r := range sg {
		if want <= 0 {
			break
		}
		n := min(r.Size, want)
		if !m.Contains(r.Start, n) {
			return false
		}
		want -= n
	}
	return true
}

// check panics on out-of-range accesses; simulated DMA engines and drivers
// are trusted code, so a violation is a bug in the simulation. Devices
// that follow guest-set pointers check them first (Contains, Reachable).
func (m *Memory) check(addr, n int64) {
	if !m.Contains(addr, n) {
		panic(fmt.Sprintf("mem: access [%#x,+%d) outside %d-byte memory", addr, n, m.size))
	}
}

// Write copies data into memory at addr.
func (m *Memory) Write(addr int64, data []byte) {
	m.check(addr, int64(len(data)))
	for len(data) > 0 {
		page := addr / PageSize
		off := addr % PageSize
		p, ok := m.pages[page]
		if !ok {
			p = make([]byte, PageSize)
			m.pages[page] = p
		}
		n := copy(p[off:], data)
		data = data[n:]
		addr += int64(n)
	}
}

// Read copies n bytes starting at addr into a fresh slice.
func (m *Memory) Read(addr, n int64) []byte {
	out := make([]byte, n)
	m.ReadInto(addr, out)
	return out
}

// ReadInto fills buf with the bytes starting at addr. It is the
// allocation-free variant of Read for hot paths whose callers own a
// reusable (often stack) buffer.
func (m *Memory) ReadInto(addr int64, buf []byte) {
	m.check(addr, int64(len(buf)))
	for len(buf) > 0 {
		page := addr / PageSize
		off := addr % PageSize
		var c int
		if p, ok := m.pages[page]; ok {
			c = copy(buf, p[off:])
		} else {
			c = len(buf)
			if rem := PageSize - int(off); c > rem {
				c = rem
			}
			for i := 0; i < c; i++ {
				buf[i] = 0
			}
		}
		buf = buf[c:]
		addr += int64(c)
	}
}

// Scatter copies data into the regions of sg in order, as a DMA engine
// fills the buffers of a scatter-gather list. It stops when data runs
// out; data past the regions' total size is dropped.
func (m *Memory) Scatter(sg []Region, data []byte) {
	for _, r := range sg {
		if len(data) == 0 {
			return
		}
		n := min(r.Size, int64(len(data)))
		m.Write(r.Start, data[:n])
		data = data[n:]
	}
}

// Gather appends want bytes to dst, read from the regions of sg in order,
// and returns the extended slice. It stops once want bytes are read; if
// the regions cover fewer, the rest reads as zeros.
func (m *Memory) Gather(dst []byte, sg []Region, want int64) []byte {
	dst = slices.Grow(dst, int(want))
	for _, r := range sg {
		if want == 0 {
			break
		}
		n := min(r.Size, want)
		off := len(dst)
		dst = dst[:off+int(n)]
		m.ReadInto(r.Start, dst[off:])
		want -= n
	}
	off := len(dst)
	dst = dst[:off+int(want)]
	clear(dst[off:])
	return dst
}

// Reserve carves a region of the given size from the top of usable memory,
// on page alignment, and records it as owned by owner. This models the
// VMM's BIOS-map manipulation: the guest's e820 map will not include it.
func (m *Memory) Reserve(size int64, owner string) Region {
	if size <= 0 {
		panic("mem: reservation size must be positive")
	}
	size = (size + PageSize - 1) / PageSize * PageSize
	top := m.size
	for _, r := range m.reserved {
		if r.Start < top {
			top = r.Start
		}
	}
	if top-size < 0 {
		panic("mem: reservation exceeds physical memory")
	}
	reg := Region{Start: top - size, Size: size, Owner: owner}
	m.reserved = append(m.reserved, reg)
	return reg
}

// Release removes a reservation, returning the region to the guest-visible
// map. It reports whether the region was found.
func (m *Memory) Release(reg Region) bool {
	for i, r := range m.reserved {
		if r == reg {
			m.reserved = append(m.reserved[:i], m.reserved[i+1:]...)
			return true
		}
	}
	return false
}

// Reserved returns the current reservations.
func (m *Memory) Reserved() []Region {
	out := make([]Region, len(m.reserved))
	copy(out, m.reserved)
	return out
}

// E820 reports the guest-visible usable memory map: the full range minus
// reserved regions, as the firmware would present it.
func (m *Memory) E820() []Region {
	usable := []Region{{Start: 0, Size: m.size, Owner: "usable"}}
	for _, res := range m.reserved {
		var next []Region
		for _, u := range usable {
			// Subtract res from u.
			if res.End() <= u.Start || res.Start >= u.End() {
				next = append(next, u)
				continue
			}
			if res.Start > u.Start {
				next = append(next, Region{Start: u.Start, Size: res.Start - u.Start, Owner: "usable"})
			}
			if res.End() < u.End() {
				next = append(next, Region{Start: res.End(), Size: u.End() - res.End(), Owner: "usable"})
			}
		}
		usable = next
	}
	return usable
}

// UsableSize reports the total bytes visible to the guest.
func (m *Memory) UsableSize() int64 {
	var n int64
	for _, r := range m.E820() {
		n += r.Size
	}
	return n
}
