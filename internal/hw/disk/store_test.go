package disk

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestFreshStoreIsZero(t *testing.T) {
	s := NewStore(100)
	buf := make([]byte, 3*SectorSize)
	s.ReadAt(10, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("fresh store not zero")
		}
	}
	if len(s.Extents()) != 1 {
		t.Fatalf("fresh store has %d extents, want 1", len(s.Extents()))
	}
}

func TestWriteReadBack(t *testing.T) {
	s := NewStore(100)
	data := make([]byte, 2*SectorSize)
	for i := range data {
		data[i] = byte(i)
	}
	s.Write(5, 2, NewBuffer(5, data, "t"))
	got := make([]byte, 2*SectorSize)
	s.ReadAt(5, got)
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
}

func TestWriteSplitsExtents(t *testing.T) {
	s := NewStore(100)
	src := Synth{Seed: 1}
	s.Write(40, 20, src)
	exts := s.Extents()
	if len(exts) != 3 {
		t.Fatalf("extents = %v, want zero|synth|zero", exts)
	}
	if exts[1].Start != 40 || exts[1].End != 60 {
		t.Fatalf("middle extent = %v", exts[1])
	}
	if s.SourceAt(39) != Zero || s.SourceAt(40) != SectorSource(src) || s.SourceAt(60) != Zero {
		t.Fatal("SourceAt boundaries wrong")
	}
}

func TestOverwriteMiddle(t *testing.T) {
	s := NewStore(100)
	a, b := Synth{Seed: 1}, Synth{Seed: 2}
	s.Write(0, 100, a)
	s.Write(30, 10, b)
	exts := s.Extents()
	if len(exts) != 3 {
		t.Fatalf("extents = %v", exts)
	}
	if s.SourceAt(29) != SectorSource(a) || s.SourceAt(30) != SectorSource(b) ||
		s.SourceAt(39) != SectorSource(b) || s.SourceAt(40) != SectorSource(a) {
		t.Fatal("overwrite boundaries wrong")
	}
}

func TestCoalesceAdjacentSameSource(t *testing.T) {
	s := NewStore(100)
	src := Synth{Seed: 9}
	s.Write(0, 10, src)
	s.Write(10, 10, src)
	s.Write(20, 10, src)
	exts := s.Extents()
	if len(exts) != 2 { // merged synth extent + trailing zero
		t.Fatalf("extents not coalesced: %v", exts)
	}
	if exts[0].Start != 0 || exts[0].End != 30 {
		t.Fatalf("merged extent = %v", exts[0])
	}
}

func TestWriteSpanningManyExtents(t *testing.T) {
	s := NewStore(100)
	for i := int64(0); i < 10; i++ {
		s.Write(i*10, 5, Synth{Seed: i})
	}
	big := Synth{Seed: 999}
	s.Write(3, 90, big)
	if s.SourceAt(3) != SectorSource(big) || s.SourceAt(92) != SectorSource(big) {
		t.Fatal("spanning write did not cover range")
	}
	if s.SourceAt(2) == SectorSource(big) || s.SourceAt(93) == SectorSource(big) {
		t.Fatal("spanning write leaked outside range")
	}
}

func TestReadAcrossExtentBoundary(t *testing.T) {
	s := NewStore(100)
	left := NewBuffer(0, bytes.Repeat([]byte{0xAA}, SectorSize), "L")
	right := NewBuffer(1, bytes.Repeat([]byte{0xBB}, SectorSize), "R")
	s.Write(0, 1, left)
	s.Write(1, 1, right)
	buf := make([]byte, 2*SectorSize)
	s.ReadAt(0, buf)
	if buf[0] != 0xAA || buf[SectorSize] != 0xBB {
		t.Fatal("cross-extent read mixed up content")
	}
}

func TestReadPayloadSymbolicWhenSingleSource(t *testing.T) {
	s := NewStore(100)
	img := NewSynthImage("ubuntu", 100*SectorSize, 7)
	s.Write(0, 100, img)
	p := s.ReadPayload(10, 50)
	if p.Source != SectorSource(img) {
		t.Fatalf("payload source = %v, want image", p.Source.Name())
	}
}

func TestReadPayloadMaterializesAcrossSources(t *testing.T) {
	s := NewStore(100)
	s.Write(0, 50, Synth{Seed: 1})
	p := s.ReadPayload(40, 20) // spans synth and zero
	want := make([]byte, 20*SectorSize)
	s.ReadAt(40, want)
	if !bytes.Equal(p.Bytes(), want) {
		t.Fatal("materialized payload differs from ReadAt")
	}
}

func TestCountBySource(t *testing.T) {
	s := NewStore(100)
	s.Write(0, 30, Synth{Seed: 1, Label: "a"})
	s.Write(50, 10, Synth{Seed: 2, Label: "b"})
	m := s.CountBySource()
	if m["a"] != 30 || m["b"] != 10 || m["zero"] != 60 {
		t.Fatalf("CountBySource = %v", m)
	}
}

func TestRangeChecks(t *testing.T) {
	s := NewStore(10)
	for _, f := range []func(){
		func() { s.Write(-1, 1, Zero) },
		func() { s.Write(5, 6, Zero) },
		func() { s.ReadAt(9, make([]byte, 2*SectorSize)) },
		func() { s.SourceAt(10) },
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

// TestStoreMatchesReferenceProperty performs random writes against both the
// extent store and a flat reference byte array and checks they agree.
func TestStoreMatchesReferenceProperty(t *testing.T) {
	const sectors = 64
	type op struct {
		LBA   uint8
		Count uint8
		Seed  int64
	}
	f := func(ops []op) bool {
		s := NewStore(sectors)
		ref := make([]byte, sectors*SectorSize)
		for _, o := range ops {
			lba := int64(o.LBA) % sectors
			count := int64(o.Count)%8 + 1
			if lba+count > sectors {
				count = sectors - lba
			}
			src := Synth{Seed: o.Seed}
			s.Write(lba, count, src)
			src.Fill(lba, ref[lba*SectorSize:(lba+count)*SectorSize])
		}
		got := make([]byte, sectors*SectorSize)
		s.ReadAt(0, got)
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestExtentInvariantProperty checks the cover invariant after random writes:
// extents are sorted, non-overlapping, contiguous, span [0, Sectors), and
// are maximally coalesced (no two neighbours share a source).
func TestExtentInvariantProperty(t *testing.T) {
	f := func(writes []uint16) bool {
		s := NewStore(256)
		for i, w := range writes {
			lba := int64(w) % 256
			count := int64(w)/256%16 + 1
			if lba+count > 256 {
				count = 256 - lba
			}
			s.Write(lba, count, Synth{Seed: int64(i % 3)})
		}
		exts := s.Extents()
		if exts[0].Start != 0 || exts[len(exts)-1].End != 256 {
			return false
		}
		for i := 1; i < len(exts); i++ {
			if exts[i].Start != exts[i-1].End || exts[i].Source == exts[i-1].Source {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// checkChunks verifies the two-level layout: every chunk is non-empty and
// within maxChunk, and no two neighbouring chunks are both shorter than
// minChunk.
func checkChunks(t *testing.T, s *Store) {
	t.Helper()
	for c, ch := range s.chunks {
		if len(ch) == 0 || len(ch) > maxChunk {
			t.Fatalf("chunk %d holds %d extents", c, len(ch))
		}
		if c > 0 && len(ch) < minChunk && len(s.chunks[c-1]) < minChunk {
			t.Fatalf("chunks %d and %d both shorter than %d", c-1, c, minChunk)
		}
	}
}

// checkModel verifies that the extent list is a sorted, contiguous,
// maximally coalesced cover of the store that agrees with a per-sector
// model of which source each sector holds.
func checkModel(t *testing.T, s *Store, model []SectorSource) {
	t.Helper()
	exts := s.Extents()
	pos := int64(0)
	for i, e := range exts {
		if e.Start != pos || e.End <= e.Start {
			t.Fatalf("extent %d = %v does not continue the cover at %d", i, e, pos)
		}
		if i > 0 && exts[i-1].Source == e.Source {
			t.Fatalf("extents %d and %d share a source: %v %v", i-1, i, exts[i-1], e)
		}
		for lba := e.Start; lba < e.End; lba++ {
			if model[lba] != e.Source {
				t.Fatalf("sector %d: extent %v, model %s", lba, e, model[lba].Name())
			}
		}
		pos = e.End
	}
	if pos != s.Sectors() {
		t.Fatalf("cover ends at %d, store has %d sectors", pos, s.Sectors())
	}
	checkChunks(t, s)
}

// modelBytes materializes [lba, lba+count) of the per-sector model.
func modelBytes(model []SectorSource, lba, count int64) []byte {
	buf := make([]byte, count*SectorSize)
	for i := int64(0); i < count; i++ {
		model[lba+i].Fill(lba+i, buf[i*SectorSize:(i+1)*SectorSize])
	}
	return buf
}

// FuzzStoreWrite decodes a store size and a write sequence, applies it to
// a store and to a per-sector reference model, and checks that they agree.
//
// The input is a little-endian uint16 size (1 to 4096 sectors) followed
// by 5-byte records: uint16 lba, a count byte, a source byte and a repeat
// byte. A count byte below 0x80 is a short write of 1 to 16 sectors;
// above, a long one of up to the whole store. A record repeats its write
// 1 to 32 times, each leaving a gap of 1 to 8 sectors after the last, so
// a few records fragment the store past many chunks and a long write
// collapses many chunks at once.
func FuzzStoreWrite(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sectors := 1 + int64(binary.LittleEndian.Uint16(data))%4096
		data = data[2:]
		pattern := func(seed byte) []byte {
			b := make([]byte, 8*SectorSize)
			for i := range b {
				b[i] = byte(i*7) ^ seed
			}
			return b
		}
		// Synth{Seed: 1} is boxed twice: the two values are equal, so
		// extents holding either must coalesce. The buffers hold eight
		// sectors each and read as zero elsewhere, yet are sources of
		// their own.
		srcs := []SectorSource{
			Zero,
			Synth{Seed: 1},
			Synth{Seed: 1},
			Synth{Seed: 2},
			NewBuffer(sectors/4, pattern(0x11), "buf-a"),
			NewBuffer(sectors/2, pattern(0x22), "buf-b"),
		}
		s := NewStore(sectors)
		model := make([]SectorSource, sectors)
		for i := range model {
			model[i] = Zero
		}
		for ; len(data) >= 5; data = data[5:] {
			lba := int64(binary.LittleEndian.Uint16(data)) % sectors
			count := 1 + int64(data[2]%16)
			if data[2] >= 0x80 {
				count = 1 + int64(data[2]&0x7f)*sectors/128
			}
			src := srcs[int(data[3])%len(srcs)]
			reps, gap := 1+int(data[4]%32), 1+int64(data[4]>>5)
			first := lba
			for r := 0; r < reps && lba < sectors; r++ {
				n := min(count, sectors-lba)
				s.Write(lba, n, src)
				for i := lba; i < lba+n; i++ {
					model[i] = src
				}
				lba += n + gap
			}
			checkModel(t, s, model)
			// Read back from just before the first write, from the middle
			// of the list: up to 64 sectors, one either side of a short
			// write.
			lo := max(first-1, 0)
			hi := min(first+count+1, lo+64, sectors)
			want := modelBytes(model, lo, hi-lo)
			got := make([]byte, len(want))
			s.ReadAt(lo, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("ReadAt(%d, %d sectors) differs from the model", lo, hi-lo)
			}
			if p := s.ReadPayload(lo, hi-lo); !bytes.Equal(p.Bytes(), want) {
				t.Fatalf("ReadPayload(%d, %d) differs from the model", lo, hi-lo)
			}
		}
		for lba, want := range model {
			if got := s.SourceAt(int64(lba)); got != want {
				t.Fatalf("SourceAt(%d) = %s, model %s", lba, got.Name(), want.Name())
			}
		}
		got := make([]byte, sectors*SectorSize)
		s.ReadAt(0, got)
		if !bytes.Equal(got, modelBytes(model, 0, sectors)) {
			t.Fatal("ReadAt of the whole store differs from the model")
		}
	})
}

// TestFragmentedWriteAllocs pins steady-state writes on a fragmented store
// at zero allocations. Each cycle collapses a run of chunks with one long
// write, which retires their arrays, then re-fragments it, which splits
// chunks onto those arrays again; between the two, scattered fragment
// overwrites keep the extent count put.
func TestFragmentedWriteAllocs(t *testing.T) {
	const frags, stride = 8192, 64
	s := NewStore(frags * stride * 2)
	srcs := [2]SectorSource{Synth{Seed: 1}, Synth{Seed: 2}}
	for i := int64(0); i < frags; i++ {
		s.Write(i*stride, 8, srcs[i%2])
	}
	const lo, hi = 1000, 1600 // the fragments a cycle collapses
	flip := make([]int, frags)
	w := 0
	cycle := func() {
		s.Write(lo*stride, (hi-lo)*stride, Zero)
		for f := int64(lo); f < hi; f++ {
			s.Write(f*stride, 8, srcs[(f+int64(flip[f]))%2])
		}
		for i := 0; i < 200; i++ {
			f := (w * 4099) % frags
			w++
			flip[f] ^= 1
			s.Write(int64(f)*stride, 8, srcs[(f+flip[f])%2])
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	before := len(s.Extents())
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("fragmented write cycle allocates %v times, want 0", allocs)
	}
	if after := len(s.Extents()); after != before || after < 2*frags {
		t.Fatalf("extent count %d -> %d, want a steady count above %d", before, after, 2*frags)
	}
	checkChunks(t, s)
	if allocs := testing.AllocsPerRun(10, func() { s.Extents() }); allocs != 1 {
		t.Fatalf("Extents allocates %v times, want 1", allocs)
	}
}
