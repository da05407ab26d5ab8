package core

import (
	"encoding/binary"
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
// a little-endian uint16 sizing the bitmap (up to 12,000 sectors, so
// scans cross summary words) followed by 5-byte operations: an opcode, a
// uint16 sector, a count byte (short below 0x80, a fraction of the bitmap
// above) and a parameter byte. Every operation also checks AllFilled,
// NoneFilled, UnfilledRuns and AppendUnfilledRuns on its range.
func FuzzBitmap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sectors := 1 + int64(binary.LittleEndian.Uint16(data))%12000
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
			count := 1 + int64(data[3]%64)
			if data[3] >= 0x80 {
				count = 1 + int64(data[3]&0x7f)*sectors/128
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
		}
		for i, f := range model {
			if b.Filled(int64(i)) != f {
				t.Fatalf("Filled(%d) = %v, model %v", i, !f, f)
			}
		}
		back, err := UnmarshalBitmap(b.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := back.UnfilledRuns(0, sectors), modelRuns(model, 0, sectors); !slices.Equal(got, want) {
			t.Fatalf("round-tripped bitmap runs %v, model %v", got, want)
		}
	})
}
