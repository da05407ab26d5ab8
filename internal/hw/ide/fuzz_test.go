package ide

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/hw/mem"
)

// Fuzz memory layout: every address a PRD entry inside memory can name
// is reduced into [0, fuzzMem-64 KiB), so any region fits.
const (
	fuzzMem  = 1<<19 + 1<<16
	fuzzWant = 1 << 18
)

// placeTable maps a fuzzed value to a PRD table address the bus-master
// register can hold: anywhere in memory (a long walk may still run past
// its end), in the last 64 KiB, or past the end.
func placeTable(at uint32) int64 {
	switch at >> 30 {
	case 0, 1:
		return int64(at) % fuzzMem
	case 2:
		return fuzzMem - 1 - int64(at&(1<<16-1))
	default:
		return fuzzMem + int64(at&(1<<30-1))
	}
}

// refPRDs is the naive reference decoder: one entry at a time, straight
// from the byte layout of the bus-master spec. It reports false if the
// walk reaches an entry not wholly inside memory.
func refPRDs(m *mem.Memory, table, want int64) ([]mem.Region, bool) {
	var out []mem.Region
	var covered int64
	for i := int64(0); i < maxPRDs; i++ {
		at := table + i*PRDEntrySize
		if at+PRDEntrySize > m.Size() {
			return nil, false
		}
		e := m.Read(at, PRDEntrySize)
		addr := int64(e[0]) | int64(e[1])<<8 | int64(e[2])<<16 | int64(e[3])<<24
		count := int64(e[4]) | int64(e[5])<<8
		if count == 0 {
			count = 65536
		}
		out = append(out, mem.Region{Start: addr, Size: count})
		covered += count
		if e[7]&0x80 != 0 || covered >= want {
			break
		}
	}
	return out, true
}

// FuzzPRDTable decodes an arbitrary guest-written PRD table, placed
// anywhere: inside memory, across its end, or past it. AppendPRDs must
// not panic, must refuse exactly the tables whose walk reaches an entry
// outside memory and leave dst alone, and must otherwise match the
// reference decoder. The decoded list then carries a payload: Scatter
// must write exactly what a flat byte model of memory predicts (so bytes
// outside the regions stay untouched), and Gather must read the payload
// back, zero-padded past the regions, whenever they do not overlap.
func FuzzPRDTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, table []byte, w uint32, at uint32) {
		want := int64(w % fuzzWant)
		tableAddr := placeTable(at)
		// Lay out every entry slot the walk can reach: the input, then
		// zeros, each address reduced into the memory.
		raw := make([]byte, maxPRDs*PRDEntrySize)
		copy(raw, table)
		for off := 0; off < len(raw); off += PRDEntrySize {
			a := binary.LittleEndian.Uint32(raw[off:])
			binary.LittleEndian.PutUint32(raw[off:], a%(fuzzMem-1<<16))
		}
		m := mem.New(fuzzMem)
		model := make([]byte, fuzzMem)
		for i := range model {
			model[i] = byte(i*13>>3) | 1
		}
		if tableAddr < fuzzMem {
			copy(model[tableAddr:], raw) // the part of the table inside memory
		}
		m.Write(0, model)

		prefix := []mem.Region{{Start: 1, Size: 1}}
		sg, err := AppendPRDs(prefix, m, tableAddr, want)
		if !slices.Equal(sg[:1], prefix) {
			t.Fatalf("AppendPRDs overwrote dst: %v", sg[:1])
		}
		ref, inside := refPRDs(m, tableAddr, want)
		if inside != (err == nil) {
			t.Fatalf("AppendPRDs of a table at %#x in %d bytes: err = %v", tableAddr, fuzzMem, err)
		}
		if err != nil {
			if len(sg) != 1 {
				t.Fatalf("failed AppendPRDs extended dst to %d entries", len(sg))
			}
			return
		}
		sg = sg[1:]
		if !slices.Equal(sg, ref) {
			t.Fatalf("AppendPRDs = %v, reference decoder = %v", sg, ref)
		}

		payload := make([]byte, want)
		for i := range payload {
			payload[i] = byte(i*7) + 0x80
		}
		m.Scatter(sg, payload)
		rest := payload
		for _, r := range sg {
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
		var covered int64
		for _, r := range sg {
			covered += r.Size
		}
		expect := make([]byte, want)
		copy(expect, payload[:min(covered, want)])
		if disjoint(sg) && !bytes.Equal(got, expect) {
			t.Fatal("Gather after Scatter did not return the zero-padded payload")
		}
		for _, r := range sg {
			if int64(len(got)) == 0 {
				break
			}
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
