package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(1000)
	if b.Filled(0) || b.FilledCount() != 0 || b.Complete() {
		t.Fatal("fresh bitmap not empty")
	}
	if changed := b.MarkFilled(10, 5); changed != 5 {
		t.Fatalf("changed = %d, want 5", changed)
	}
	if !b.AllFilled(10, 5) || b.Filled(9) || b.Filled(15) {
		t.Fatal("mark boundaries wrong")
	}
	if changed := b.MarkFilled(10, 5); changed != 0 {
		t.Fatal("re-mark reported changes")
	}
}

func TestBitmapComplete(t *testing.T) {
	b := NewBitmap(130) // crosses word boundaries
	b.MarkFilled(0, 130)
	if !b.Complete() || b.FilledCount() != 130 {
		t.Fatal("bitmap not complete after full mark")
	}
}

func TestUnfilledRuns(t *testing.T) {
	b := NewBitmap(100)
	b.MarkFilled(10, 10)
	b.MarkFilled(50, 25)
	runs := b.UnfilledRuns(0, 100)
	want := []Run{{LBA: 0, Count: 10}, {LBA: 20, Count: 30}, {LBA: 75, Count: 25}}
	if len(runs) != len(want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("runs = %v, want %v", runs, want)
		}
	}
}

func TestUnfilledRunsSubrange(t *testing.T) {
	b := NewBitmap(100)
	b.MarkFilled(30, 10)
	runs := b.UnfilledRuns(25, 20) // [25,45): unfilled 25-30 and 40-45
	if len(runs) != 2 || runs[0] != (Run{LBA: 25, Count: 5}) || runs[1] != (Run{LBA: 40, Count: 5}) {
		t.Fatalf("runs = %v", runs)
	}
}

func TestNextUnfilled(t *testing.T) {
	b := NewBitmap(200)
	b.MarkFilled(0, 100)
	r, ok := b.NextUnfilled(0, 64)
	if !ok || r.LBA != 100 || r.Count != 64 {
		t.Fatalf("NextUnfilled = %v, %v", r, ok)
	}
	// Capped by maxCount.
	r, _ = b.NextUnfilled(150, 10)
	if r.LBA != 150 || r.Count != 10 {
		t.Fatalf("NextUnfilled(150) = %v", r)
	}
}

func TestNextUnfilledWraps(t *testing.T) {
	b := NewBitmap(100)
	b.MarkFilled(50, 50)
	r, ok := b.NextUnfilled(80, 64)
	if !ok || r.LBA != 0 {
		t.Fatalf("NextUnfilled did not wrap: %v, %v", r, ok)
	}
}

func TestNextUnfilledComplete(t *testing.T) {
	b := NewBitmap(64)
	b.MarkFilled(0, 64)
	if _, ok := b.NextUnfilled(0, 8); ok {
		t.Fatal("NextUnfilled on complete bitmap returned a run")
	}
}

func TestNextUnfilledLastSector(t *testing.T) {
	// Only the very last sector is unfilled, in a bitmap whose tail word is
	// partial; scans from anywhere must land on it.
	b := NewBitmap(1000)
	b.MarkFilled(0, 999)
	for _, from := range []int64{0, 63, 64, 512, 998, 999} {
		r, ok := b.NextUnfilled(from, 8)
		if !ok || r != (Run{LBA: 999, Count: 1}) {
			t.Fatalf("NextUnfilled(%d) = %v, %v; want {999 1}", from, r, ok)
		}
	}
}

func TestNextUnfilledFullWordBoundary(t *testing.T) {
	// The unfilled run starts exactly at a word boundary after a stretch of
	// completely filled words (the summary fast path), and another ends
	// exactly at a word boundary.
	b := NewBitmap(64 * 10)
	b.MarkFilled(0, 64*4)  // words 0-3 full
	b.MarkFilled(64*5, 64) // word 5 full
	r, ok := b.NextUnfilled(0, 1000)
	if !ok || r != (Run{LBA: 64 * 4, Count: 64}) {
		t.Fatalf("NextUnfilled(0) = %v, %v; want {256 64}", r, ok)
	}
	r, ok = b.NextUnfilled(64*5, 1000)
	if !ok || r != (Run{LBA: 64 * 6, Count: 64 * 4}) {
		t.Fatalf("NextUnfilled(320) = %v, %v; want {384 256}", r, ok)
	}
}

func TestNextUnfilledSingleBit(t *testing.T) {
	// A single unfilled bit in the middle of an otherwise full bitmap.
	b := NewBitmap(64 * 100)
	b.MarkFilled(0, b.Sectors())
	// Poke one bit clear through a fresh bitmap with the same shape.
	b = NewBitmap(64 * 100)
	b.MarkFilled(0, 3000)
	b.MarkFilled(3001, b.Sectors()-3001)
	for _, from := range []int64{0, 2999, 3000, 3001, 6000} {
		r, ok := b.NextUnfilled(from, 64)
		if !ok || r != (Run{LBA: 3000, Count: 1}) {
			t.Fatalf("NextUnfilled(%d) = %v, %v; want {3000 1}", from, r, ok)
		}
	}
}

func TestNextUnfilledOutOfRangeWrap(t *testing.T) {
	// Out-of-range positions normalize by modular wrap — deterministically,
	// and visibly via the returned run — instead of silently restarting at 0.
	b := NewBitmap(100)
	b.MarkFilled(0, 50)
	cases := []struct {
		lba  int64
		want Run
	}{
		{100, Run{LBA: 50, Count: 10}},  // == sectors → 0 → first unfilled is 50
		{175, Run{LBA: 75, Count: 10}},  // wraps to 75
		{-25, Run{LBA: 75, Count: 10}},  // negative wraps from the end
		{-100, Run{LBA: 50, Count: 10}}, // -100 → 0
	}
	for _, c := range cases {
		r, ok := b.NextUnfilled(c.lba, 10)
		if !ok || r != c.want {
			t.Fatalf("NextUnfilled(%d) = %v, %v; want %v", c.lba, r, ok, c.want)
		}
	}
}

func TestBitmapCursor(t *testing.T) {
	b := NewBitmap(200)
	b.MarkFilled(0, 100)
	var c Cursor
	r, ok := b.NextUnfilledFrom(&c, 30)
	if !ok || r != (Run{LBA: 100, Count: 30}) || c.Pos() != 130 {
		t.Fatalf("first = %v, %v, pos %d", r, ok, c.Pos())
	}
	r, ok = b.NextUnfilledFrom(&c, 100)
	if !ok || r != (Run{LBA: 130, Count: 70}) || c.Pos() != 200 {
		t.Fatalf("second = %v, %v, pos %d", r, ok, c.Pos())
	}
	// Cursor at the end wraps like NextUnfilled does.
	b2 := NewBitmap(200)
	b2.MarkFilled(100, 100)
	c = Cursor{pos: 200}
	r, ok = b2.NextUnfilledFrom(&c, 64)
	if !ok || r != (Run{LBA: 0, Count: 64}) {
		t.Fatalf("wrapped = %v, %v", r, ok)
	}
	c.Reset()
	if c.Pos() != 0 {
		t.Fatal("Reset did not zero the cursor")
	}
}

// TestNextUnfilledMatchesReference checks that the hierarchical scan emits
// byte-identical runs to a straightforward per-bit reference scan.
func TestNextUnfilledMatchesReference(t *testing.T) {
	const n = 64*5 + 17 // partial tail word
	ref := func(words []bool, lba, maxCount int64) (Run, bool) {
		scan := func(from, to int64) (Run, bool) {
			for i := from; i < to; i++ {
				if !words[i] {
					r := Run{LBA: i}
					for i < to && r.Count < maxCount && !words[i] {
						r.Count++
						i++
					}
					return r, true
				}
			}
			return Run{}, false
		}
		if r, ok := scan(lba, n); ok {
			return r, true
		}
		return scan(0, lba)
	}
	f := func(ops []uint16, probes []uint16) bool {
		b := NewBitmap(n)
		bits := make([]bool, n)
		for _, op := range ops {
			lba := int64(op) % n
			count := int64(op)/n%70 + 1
			if lba+count > n {
				count = n - lba
			}
			b.MarkFilled(lba, count)
			for i := lba; i < lba+count; i++ {
				bits[i] = true
			}
		}
		if b.Complete() {
			return true
		}
		for _, pr := range probes {
			lba := int64(pr) % n
			maxCount := int64(pr)%100 + 1
			got, gok := b.NextUnfilled(lba, maxCount)
			want, wok := ref(bits, lba, maxCount)
			if gok != wok || got != want {
				t.Logf("NextUnfilled(%d,%d) = %v,%v; reference %v,%v", lba, maxCount, got, gok, want, wok)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	b := NewBitmap(1000)
	b.MarkFilled(3, 100)
	b.MarkFilled(500, 77)
	got, err := UnmarshalBitmap(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.FilledCount() != b.FilledCount() || got.Sectors() != b.Sectors() {
		t.Fatal("round trip counts differ")
	}
	if !bytes.Equal(got.Marshal(), b.Marshal()) {
		t.Fatal("round trip bytes differ")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	b := NewBitmap(100)
	b.MarkFilled(0, 10)
	blob := b.Marshal()
	blob[8] = 99 // lie about the filled count
	if _, err := UnmarshalBitmap(blob); err == nil {
		t.Fatal("corrupt blob accepted")
	}
	if _, err := UnmarshalBitmap(blob[:10]); err == nil {
		t.Fatal("short blob accepted")
	}
	if _, err := UnmarshalBitmap(make([]byte, 100)); err == nil {
		t.Fatal("zero sector count accepted")
	}
}

// TestUnmarshalRejectsTailBits pins the loader against a blob that sets
// bits past the last sector: a 100-sector bitmap with sectors 0–71
// filled and the tail bits 100–127 set, its header claiming all 100
// filled. Accepted, it would read as complete with 28 sectors unfilled,
// and a resumed VMM would stop copying.
func TestUnmarshalRejectsTailBits(t *testing.T) {
	b := NewBitmap(100)
	b.MarkFilled(0, 72)
	blob := b.Marshal()
	binary.LittleEndian.PutUint64(blob[8:], 100)
	tail := binary.LittleEndian.Uint64(blob[24:])
	binary.LittleEndian.PutUint64(blob[24:], tail|0xFFFFFFF<<36)
	if got, err := UnmarshalBitmap(blob); err == nil {
		t.Fatalf("blob with tail bits accepted: Complete() = %v, FilledCount() = %d", got.Complete(), got.FilledCount())
	}
}

func TestBitmapRangeChecks(t *testing.T) {
	b := NewBitmap(10)
	for _, f := range []func(){
		func() { b.MarkFilled(5, 6) },
		func() { b.Filled(10) },
		func() { b.AllFilled(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range bitmap op did not panic")
				}
			}()
			f()
		}()
	}
}

// TestBitmapMatchesReferenceProperty compares against a plain bool slice.
func TestBitmapMatchesReferenceProperty(t *testing.T) {
	const n = 300
	f := func(ops []uint16) bool {
		b := NewBitmap(n)
		ref := make([]bool, n)
		for _, op := range ops {
			lba := int64(op) % n
			count := int64(op)/n%9 + 1
			if lba+count > n {
				count = n - lba
			}
			b.MarkFilled(lba, count)
			for i := lba; i < lba+count; i++ {
				ref[i] = true
			}
		}
		var refFilled int64
		for i, v := range ref {
			if v != b.Filled(int64(i)) {
				return false
			}
			if v {
				refFilled++
			}
		}
		if refFilled != b.FilledCount() {
			return false
		}
		// Round trip must preserve everything.
		rt, err := UnmarshalBitmap(b.Marshal())
		if err != nil {
			return false
		}
		for i := int64(0); i < n; i++ {
			if rt.Filled(i) != b.Filled(i) {
				return false
			}
		}
		// UnfilledRuns must exactly cover the unfilled sectors.
		covered := make([]bool, n)
		for _, r := range b.UnfilledRuns(0, n) {
			for i := r.LBA; i < r.End(); i++ {
				covered[i] = true
			}
		}
		for i, v := range ref {
			if covered[i] == v { // covered iff unfilled
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
