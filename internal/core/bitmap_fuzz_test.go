package core

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"testing"
)

// modelRuns is the flat model of UnfilledRuns.
func modelRuns(model []bool, lba, count int64) []Run {
	var runs []Run
	for i := lba; i < lba+count; i++ {
		if model[i] {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].End() == i {
			runs[n-1].Count++
		} else {
			runs = append(runs, Run{LBA: i, Count: 1})
		}
	}
	return runs
}

// modelNext is the flat model of NextUnfilled: the first unfilled sector
// at or after lba (wrapped onto the bitmap), else the first one before
// it, extended over unfilled sectors up to maxCount.
func modelNext(model []bool, lba, maxCount int64) (Run, bool) {
	n := int64(len(model))
	lba = (lba%n + n) % n
	for _, span := range [][2]int64{{lba, n}, {0, lba}} {
		for i := span[0]; i < span[1]; i++ {
			if model[i] {
				continue
			}
			r := Run{LBA: i}
			for i < span[1] && !model[i] && r.Count < maxCount {
				r.Count++
				i++
			}
			return r, true
		}
	}
	return Run{}, false
}

// FuzzBitmap checks Bitmap against a flat per-sector model. The input is
// a little-endian uint16 sizing the bitmap (1 to 65,536 sectors, so up
// to 16 chunks and a partial tail chunk) followed by 5-byte operations:
// an opcode, a uint16 sector, a count byte (short below 0x40, whole
// chunks from a chunk boundary below 0x80, a fraction of the bitmap
// above) and a parameter byte. Every operation also checks AllFilled,
// NoneFilled, UnfilledRuns, AppendUnfilledRuns and the chunk states on
// its range; at the end Marshal must equal the model's serialization.
func FuzzBitmap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sectors := 1 + int64(binary.LittleEndian.Uint16(data))
		data = data[2:]
		b := NewBitmap(sectors)
		model := make([]bool, sectors)
		var filled int64
		var cursor Cursor
		var modelPos int64
		prefix := []Run{{LBA: -1, Count: 1}}
		for ; len(data) >= 5; data = data[5:] {
			raw := binary.LittleEndian.Uint16(data[1:])
			lba := int64(raw) % sectors
			count := 1 + int64(data[3])
			switch {
			case data[3] >= 0x80:
				count = 1 + int64(data[3]&0x7f)*sectors/128
			case data[3] >= 0x40:
				lba = lba / chunkSectors * chunkSectors
				count = (1 + int64(data[3]&3)) * chunkSectors
			}
			count = min(count, sectors-lba)
			maxCount := 1 + int64(data[4])
			if data[4] >= 0x80 {
				maxCount = 1 + int64(data[4]&0x7f)*sectors/64
			}
			switch data[0] % 3 {
			case 0:
				var changed int64
				for i := lba; i < lba+count; i++ {
					if !model[i] {
						model[i] = true
						changed++
					}
				}
				filled += changed
				if got := b.MarkFilled(lba, count); got != changed {
					t.Fatalf("MarkFilled(%d, %d) = %d, model %d", lba, count, got, changed)
				}
			case 1:
				// Any sector, negative or past the end, wraps onto the bitmap.
				at := int64(int16(raw)) * (1 + int64(data[0]>>7))
				got, ok := b.NextUnfilled(at, maxCount)
				want, wantOK := modelNext(model, at, maxCount)
				if got != want || ok != wantOK {
					t.Fatalf("NextUnfilled(%d, %d) = %v, %v; model %v, %v", at, maxCount, got, ok, want, wantOK)
				}
			case 2:
				got, ok := b.NextUnfilledFrom(&cursor, maxCount)
				want, wantOK := modelNext(model, modelPos, maxCount)
				if wantOK {
					modelPos = want.End()
				}
				if got != want || ok != wantOK || cursor.Pos() != modelPos {
					t.Fatalf("NextUnfilledFrom(%d) = %v, %v, pos %d; model %v, %v, pos %d",
						maxCount, got, ok, cursor.Pos(), want, wantOK, modelPos)
				}
			}

			want := modelRuns(model, lba, count)
			if got := b.UnfilledRuns(lba, count); !slices.Equal(got, want) {
				t.Fatalf("UnfilledRuns(%d, %d) = %v, model %v", lba, count, got, want)
			}
			got := b.AppendUnfilledRuns(prefix, lba, count)
			if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], want) {
				t.Fatalf("AppendUnfilledRuns(%v, %d, %d) = %v, model runs %v", prefix, lba, count, got, want)
			}
			none := len(want) == 1 && want[0] == (Run{LBA: lba, Count: count})
			if all := len(want) == 0; b.AllFilled(lba, count) != all || b.NoneFilled(lba, count) != none {
				t.Fatalf("AllFilled/NoneFilled(%d, %d) = %v/%v, model %v/%v",
					lba, count, b.AllFilled(lba, count), b.NoneFilled(lba, count), all, none)
			}
			if b.FilledCount() != filled || b.Complete() != (filled == sectors) {
				t.Fatalf("FilledCount = %d, Complete = %v; model %d of %d", b.FilledCount(), b.Complete(), filled, sectors)
			}
			checkChunks(t, b)
		}
		for i, f := range model {
			if b.Filled(int64(i)) != f {
				t.Fatalf("Filled(%d) = %v, model %v", i, !f, f)
			}
		}
		blob := b.Marshal()
		if want := modelMarshal(model); !bytes.Equal(blob, want) || b.PersistSize() != int64(len(want)) {
			t.Fatalf("Marshal = %x (PersistSize %d), model %x", blob, b.PersistSize(), want)
		}
		back, err := UnmarshalBitmap(blob)
		if err != nil {
			t.Fatal(err)
		}
		checkChunks(t, back)
		if got, want := back.UnfilledRuns(0, sectors), modelRuns(model, 0, sectors); !slices.Equal(got, want) {
			t.Fatalf("round-tripped bitmap runs %v, model %v", got, want)
		}
	})
}

// modelMarshal is the flat model of Marshal: the sector and filled
// counts, then one bit per sector in little-endian words.
func modelMarshal(model []bool) []byte {
	out := make([]byte, 16+(len(model)+63)/64*8)
	binary.LittleEndian.PutUint64(out, uint64(len(model)))
	var filled uint64
	for i, f := range model {
		if f {
			filled++
			out[16+i/8] |= 1 << (i % 8)
		}
	}
	binary.LittleEndian.PutUint64(out[8:], filled)
	return out
}

// checkChunks checks the chunk states of b: the shared chunks are
// untouched, every owned chunk is mixed with its count matching its bits
// (tail padding included), and carved storage is either in a mixed
// chunk, on the spare list or not yet handed out.
func checkChunks(t *testing.T, b *Bitmap) {
	t.Helper()
	if *emptyChunk != (chunk{}) || fullChunk.n != chunkSectors || fullChunk.next != nil {
		t.Fatal("a shared chunk was written")
	}
	for _, w := range fullChunk.w {
		if w != ^uint64(0) {
			t.Fatal("fullChunk was written")
		}
	}
	var owned, spare int
	for ci, c := range b.chunks {
		if c == emptyChunk || c == fullChunk {
			continue
		}
		owned++
		var n int64
		for _, w := range c.w {
			n += int64(bits.OnesCount64(w))
		}
		pad := max(0, int64(ci+1)*chunkSectors-b.sectors)
		if !c.uniform(chunkSectors-pad, chunkSectors, true) {
			t.Fatalf("chunk %d: tail padding not set", ci)
		}
		if n != c.n || n <= pad || n >= chunkSectors {
			t.Fatalf("chunk %d owns storage with %d bits set (count %d, padding %d)", ci, n, c.n, pad)
		}
	}
	for c := b.spare; c != nil; c = c.next {
		spare++
	}
	if owned+spare+len(b.batch) != b.carved || b.carved > len(b.chunks) {
		t.Fatalf("%d mixed + %d spare + %d uncarved chunks, %d carved of %d",
			owned, spare, len(b.batch), b.carved, len(b.chunks))
	}
}

// FuzzUnmarshalBitmap loads arbitrary bytes as a saved bitmap. A blob is
// rejected or loads a bitmap that re-marshals to the blob's first
// PersistSize bytes, whose FilledCount is the number of set bits, and
// which is Complete exactly when every sector is filled, with its scans
// agreeing.
func FuzzUnmarshalBitmap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalBitmap(data)
		if err != nil {
			return
		}
		if got, want := b.Marshal(), data[:b.PersistSize()]; !bytes.Equal(got, want) {
			t.Fatalf("re-marshaled %x, loaded %x", got, want)
		}
		checkChunks(t, b)
		var set int64
		for i := 16; i < int(b.PersistSize()); i += 8 {
			set += int64(bits.OnesCount64(binary.LittleEndian.Uint64(data[i:])))
		}
		if b.FilledCount() != set {
			t.Fatalf("FilledCount = %d, %d bits set", b.FilledCount(), set)
		}
		every := set == b.Sectors()
		for lba := int64(0); lba < b.Sectors() && every; lba++ {
			every = data[16+lba/8]&(1<<(lba%8)) != 0
		}
		_, open := b.NextUnfilled(0, b.Sectors())
		if b.Complete() != every || open == every || b.AllFilled(0, b.Sectors()) != every {
			t.Fatalf("Complete = %v, NextUnfilled ok = %v, AllFilled = %v; every sector filled: %v",
				b.Complete(), open, b.AllFilled(0, b.Sectors()), every)
		}
	})
}
