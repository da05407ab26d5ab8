package aoe

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzHeader checks the AoE header codec on arbitrary bytes. Unmarshal
// must never panic; an accepted buffer must re-encode to its first
// HeaderSize bytes with the reserved bytes (5, 15 and the unused tail,
// 34 and 35) and the LBA's top 16 bits zeroed; and a header built from the same bytes, every field at
// full width, must survive Marshal then Unmarshal with only its wire
// truncations applied: Flags to four bits, LBA to 48. The seed corpus is
// testdata/fuzz/FuzzHeader.
func FuzzHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if h, err := Unmarshal(b); err == nil {
			want := bytes.Clone(b[:HeaderSize])
			want[5], want[15], want[34], want[35] = 0, 0, 0, 0 // reserved
			want[16], want[17] = 0, 0                          // LBA bits 48-63
			if got := h.Marshal(); !bytes.Equal(got, want) {
				t.Fatalf("Marshal(Unmarshal(b)) = %x, want %x", got, want)
			}
		} else if len(b) >= HeaderSize && b[0]>>4 == 1 {
			t.Fatalf("Unmarshal rejected a full version-1 header: %v", err)
		}

		h := rawHeader(b)
		got, err := Unmarshal(h.Marshal())
		if err != nil {
			t.Fatalf("Unmarshal(Marshal(%+v)): %v", h, err)
		}
		h.Flags &= 0x0F
		h.LBA &= 0xFFFFFFFFFFFF
		if got != h {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, h)
		}
	})
}

// rawHeader fills every Header field at its full Go width from b,
// zero-padded to HeaderSize bytes, ignoring the wire format's limits.
func rawHeader(b []byte) Header {
	p := make([]byte, HeaderSize)
	copy(p, b)
	return Header{
		Flags:     p[0],
		Error:     p[1],
		Major:     binary.BigEndian.Uint16(p[2:]),
		Minor:     p[4],
		Tag:       binary.BigEndian.Uint32(p[6:]),
		AFlags:    p[10],
		Feature:   p[11],
		Count:     binary.BigEndian.Uint16(p[12:]),
		Cmd:       p[14],
		LBA:       binary.BigEndian.Uint64(p[16:]),
		FragTotal: binary.BigEndian.Uint16(p[24:]),
		Stamp:     int64(binary.BigEndian.Uint64(p[26:])),
	}
}
