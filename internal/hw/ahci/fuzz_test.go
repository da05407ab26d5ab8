package ahci

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/hw/mem"
)

// Fuzz memory layout: the command table (CFIS area plus up to 65,535
// PRDT entries, just over 1 MiB) is placed by placeTable, inside memory,
// across its end or far past it, and the scatter-gather pass moves at
// most fuzzPayload bytes.
const (
	fuzzMem     = 1<<20 + 1<<18
	fuzzPayload = 1 << 17
)

// placeTable maps the fuzzer's position word to a command-table address
// for a table of span bytes. Below 1<<31 the table fits in memory, as a
// driver places it; from 1<<31 it starts within 256 KiB after the place
// where it would end flush with memory, so it may end past memory or
// start past it; from 3<<30 it is far past memory, at or above 1<<63,
// where the address is negative as int64.
func placeTable(at uint32, span int) uint64 {
	switch at >> 30 {
	case 0, 1:
		return uint64(at) % uint64(fuzzMem-span+1)
	case 2:
		return uint64(fuzzMem-span) + uint64(at&(1<<18-1))
	default:
		return uint64(at) << 32
	}
}

// refPRDs is the naive reference decoder: one entry at a time, straight
// from the AHCI PRDT entry layout. Bytes 0-7 are the data base address,
// bytes 8-11 are reserved, and the low 22 bits of bytes 12-15 hold the
// 0-based byte count; the bits above it (reserved, interrupt on
// completion) do not affect the transfer.
func refPRDs(m *mem.Memory, ctba uint64, n int) []mem.Region {
	prdt := m.Read(int64(ctba)+CmdTablePRDT, int64(n)*PRDTEntrySize)
	out := make([]mem.Region, 0, n)
	for i := 0; i < n; i++ {
		e := prdt[i*PRDTEntrySize:]
		var addr uint64
		for j := 7; j >= 0; j-- {
			addr = addr<<8 | uint64(e[j])
		}
		dbc := int64(e[12]) | int64(e[13])<<8 | int64(e[14]&0x3F)<<16
		out = append(out, mem.Region{Start: int64(addr), Size: dbc + 1})
	}
	return out
}

// FuzzAHCIPRDT decodes an arbitrary guest-written PRDT of any length the
// command header can name (0 to 65,535 entries), placed anywhere: inside
// memory, across its end, or far past it. AppendPRDs must not panic, must
// refuse exactly the tables not wholly inside memory and leave dst alone,
// and must otherwise match the reference decoder. The decoded list, each
// non-negative start reduced into memory (so regions may cross its end,
// and negative ones stay out), then carries a payload: Reachable must say
// whether every byte the payload touches is inside memory, and when it
// is, Scatter must write exactly what a flat byte model predicts, and
// Gather must read it back, zero-padded past the regions, whenever they
// do not overlap.
func FuzzAHCIPRDT(f *testing.F) {
	f.Fuzz(func(t *testing.T, table []byte, at uint32, prdtl uint16, w uint32) {
		n := int(prdtl)
		span := CmdTablePRDT + n*PRDTEntrySize
		ctba := placeTable(at, span)
		want := int64(w % (fuzzPayload + 1))

		m := mem.New(fuzzMem)
		model := make([]byte, fuzzMem)
		for i := range model {
			model[i] = byte(i*13>>3) | 1
		}
		// The table's bytes land where the table overlaps memory.
		if lo := int64(ctba) + CmdTablePRDT; lo >= 0 && lo < fuzzMem {
			copy(model[lo:min(int64(ctba)+int64(span), fuzzMem)], table)
		}
		m.Write(0, model)

		// A reused dst, as the HBA passes: the entries must go after it.
		prefix := append(make([]mem.Region, 0, 1+n), mem.Region{Start: 1, Size: 1})
		sg, err := AppendPRDs(prefix, m, ctba, n)
		if !slices.Equal(sg[:1], prefix) {
			t.Fatalf("AppendPRDs overwrote dst: %v", sg[:1])
		}
		inside := int64(ctba) >= 0 && int64(ctba)+int64(span) <= fuzzMem
		if inside != (err == nil) {
			t.Fatalf("AppendPRDs of a table at %#x+%d in %d bytes: err = %v", ctba, span, fuzzMem, err)
		}
		if err != nil {
			if len(sg) != 1 {
				t.Fatalf("failed AppendPRDs extended dst to %d entries", len(sg))
			}
			return
		}
		sg = sg[1:]
		if ref := refPRDs(m, ctba, n); !slices.Equal(sg, ref) {
			t.Fatalf("AppendPRDs = %v, reference decoder = %v", sg, ref)
		}
		// The payload reaches only the first regions, reach bytes of
		// them; the rest must be left alone by Scatter and Gather.
		used, reach := sg[:0], int64(0)
		for i, r := range sg {
			if r.Size < 1 || r.Size > 1<<22 {
				t.Fatalf("entry %d: size %d outside [1, 4 MiB]", i, r.Size)
			}
			if r.Start >= 0 {
				sg[i].Start = r.Start % fuzzMem
			}
			if reach < want {
				reach += r.Size
				used = sg[:i+1]
			}
		}
		inside, left := true, want
		for _, r := range used {
			n := min(r.Size, left)
			inside = inside && r.Start >= 0 && r.Start+n <= fuzzMem
			left -= n
		}
		if got := m.Reachable(sg, want); got != inside {
			t.Fatalf("Reachable(%v, %d) = %v, want %v", used, want, got, inside)
		}
		if !inside {
			return // a device faults this transfer instead of moving data
		}

		payload := make([]byte, want)
		for i := range payload {
			payload[i] = byte(i*7) + 0x80
		}
		m.Scatter(sg, payload)
		rest := payload
		for _, r := range used {
			n := min(r.Size, int64(len(rest)))
			copy(model[r.Start:], rest[:n])
			rest = rest[n:]
		}
		if got := m.Read(0, fuzzMem); !bytes.Equal(got, model) {
			i := 0
			for got[i] == model[i] {
				i++
			}
			t.Fatalf("memory after Scatter differs from the model at %#x: %#x, want %#x", i, got[i], model[i])
		}

		// A reused dst has stale bytes past its length: the padding must
		// not show them.
		got := m.Gather(bytes.Repeat([]byte{0xAA}, int(want)+1)[:1], sg, want)
		if got[0] != 0xAA || int64(len(got)) != 1+want {
			t.Fatalf("Gather returned %d bytes (first %#x), want the prefix and %d", len(got), got[0], want)
		}
		got = got[1:]
		expect := make([]byte, want)
		copy(expect, payload[:min(reach, want)])
		if disjoint(used) && !bytes.Equal(got, expect) {
			t.Fatal("Gather after Scatter did not return the zero-padded payload")
		}
		for _, r := range used {
			n := min(r.Size, int64(len(got)))
			if !bytes.Equal(got[:n], model[r.Start:r.Start+n]) {
				t.Fatalf("Gather over %v disagrees with memory", r)
			}
			got = got[n:]
		}
		if !bytes.Equal(got, make([]byte, len(got))) {
			t.Fatal("Gather past the regions is not zero")
		}
	})
}

// disjoint reports whether no two regions overlap.
func disjoint(sg []mem.Region) bool {
	s := slices.Clone(sg)
	slices.SortFunc(s, func(a, b mem.Region) int { return int(a.Start - b.Start) })
	for i := 1; i < len(s); i++ {
		if s[i].Start < s[i-1].End() {
			return false
		}
	}
	return true
}
