// Package core implements the BMcast VMM: the four-phase deployment
// lifecycle (initialization, deployment, de-virtualization, bare-metal),
// copy-on-read and background copy over the device mediators, the block
// bitmap with its consistency guarantees, copy-speed moderation, and
// seamless de-virtualization (paper §3).
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/mediator"
)

// Bitmap tracks, per sector, whether the local disk already holds valid
// data (filled by the background copy, copy-on-read, or a guest write).
// The paper stores one bit per disk block and checks it atomically to
// keep the VMM from overwriting guest-written blocks (§3.3); here the
// atomicity is the simulation's cooperative scheduling: checks and updates
// between yields are indivisible.
//
// The structure is a two-level hierarchy: words holds one bit per sector,
// and summary holds one bit per word, set when that word is completely
// filled. Scans skip filled regions one summary word — 4096 sectors — at
// a time, which keeps NextUnfilled cheap late in a deployment when almost
// everything below the copy frontier is filled.
type Bitmap struct {
	sectors int64
	words   []uint64
	// summary: bit j of summary[i] is set iff words[i*64+j] == ^uint64(0).
	// The trailing partial word of a non-multiple-of-64 bitmap never
	// reaches all-ones, so its summary bit stays clear — scans always
	// examine it directly, exactly like the flat scan did.
	summary []uint64
	filled  int64
}

// NewBitmap returns an all-unfilled bitmap covering the given sectors.
func NewBitmap(sectors int64) *Bitmap {
	if sectors <= 0 {
		panic("core: bitmap must cover a positive sector count")
	}
	nw := (sectors + 63) / 64
	return &Bitmap{
		sectors: sectors,
		words:   make([]uint64, nw),
		summary: make([]uint64, (nw+63)/64),
	}
}

// Sectors reports the tracked capacity.
func (b *Bitmap) Sectors() int64 { return b.sectors }

// FilledCount reports how many sectors are filled.
func (b *Bitmap) FilledCount() int64 { return b.filled }

// Complete reports whether every sector is filled.
func (b *Bitmap) Complete() bool { return b.filled == b.sectors }

func (b *Bitmap) check(lba, count int64) {
	if lba < 0 || count <= 0 || lba+count > b.sectors {
		panic(fmt.Sprintf("core: bitmap range [%d,+%d) outside %d sectors", lba, count, b.sectors))
	}
}

// Filled reports whether sector lba is filled.
func (b *Bitmap) Filled(lba int64) bool {
	b.check(lba, 1)
	return b.words[lba/64]&(1<<uint(lba%64)) != 0
}

// rangeMask returns the mask covering bits [off, off+n) of a word, n ≤ 64.
func rangeMask(off, n int64) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return (uint64(1)<<uint(n) - 1) << uint(off)
}

// AllFilled reports whether every sector in [lba, lba+count) is filled.
func (b *Bitmap) AllFilled(lba, count int64) bool { return b.uniform(lba, count, true) }

// NoneFilled reports whether no sector in [lba, lba+count) is filled.
func (b *Bitmap) NoneFilled(lba, count int64) bool { return b.uniform(lba, count, false) }

// uniform reports whether every sector in [lba, lba+count) is in the
// given state, one masked word check at a time.
func (b *Bitmap) uniform(lba, count int64, filled bool) bool {
	b.check(lba, count)
	for i, end := lba, lba+count; i < end; {
		off := i % 64
		n := 64 - off
		if rem := end - i; n > rem {
			n = rem
		}
		m := rangeMask(off, n)
		want := m
		if !filled {
			want = 0
		}
		if b.words[i/64]&m != want {
			return false
		}
		i += n
	}
	return true
}

// MarkFilled sets [lba, lba+count) filled, returning how many sectors
// changed state.
func (b *Bitmap) MarkFilled(lba, count int64) int64 {
	b.check(lba, count)
	var changed int64
	for i, end := lba, lba+count; i < end; {
		off := i % 64
		n := 64 - off
		if rem := end - i; n > rem {
			n = rem
		}
		w := i / 64
		if added := rangeMask(off, n) &^ b.words[w]; added != 0 {
			b.words[w] |= added
			changed += int64(bits.OnesCount64(added))
			if b.words[w] == ^uint64(0) {
				b.summary[w/64] |= 1 << uint(w%64)
			}
		}
		i += n
	}
	b.filled += changed
	return changed
}

// Run is a contiguous sector range, the same type the mediators use.
type Run = mediator.Run

// UnfilledRuns returns the maximal unfilled sub-ranges of [lba, lba+count)
// in ascending order.
func (b *Bitmap) UnfilledRuns(lba, count int64) []Run { return b.AppendUnfilledRuns(nil, lba, count) }

// AppendUnfilledRuns appends the maximal unfilled sub-ranges of
// [lba, lba+count) to dst in ascending order and returns the extended
// slice. It steps over filled and unfilled stretches a word at a time.
func (b *Bitmap) AppendUnfilledRuns(dst []Run, lba, count int64) []Run {
	b.check(lba, count)
	start := len(dst)
	for i, end := lba, lba+count; i < end; {
		word := b.words[i/64] >> uint(i%64) // bit k: sector i+k is filled
		rest := min(64-i%64, end-i)         // sectors of this word in range
		if n := min(int64(bits.TrailingZeros64(^word)), rest); n > 0 {
			i += n // filled stretch
			continue
		}
		n := min(int64(bits.TrailingZeros64(word)), rest)
		if k := len(dst); k > start && dst[k-1].End() == i {
			dst[k-1].Count += n // the run continues from the previous word
		} else {
			dst = append(dst, Run{LBA: i, Count: n})
		}
		i += n
	}
	return dst
}

// NextUnfilled finds the first unfilled sector at or after lba, wrapping
// to the start; it returns the run beginning there, capped at maxCount.
// An out-of-range lba (negative, or past the last sector) is normalized
// onto [0, sectors) by modular wrap — deterministic, and visible to the
// caller through the returned Run's LBA rather than a silent restart from
// sector 0. ok is false when the bitmap is complete.
func (b *Bitmap) NextUnfilled(lba, maxCount int64) (Run, bool) {
	if b.Complete() {
		return Run{}, false
	}
	if lba >= b.sectors || lba < 0 {
		lba = (lba%b.sectors + b.sectors) % b.sectors
	}
	if r, ok := b.scanUnfilled(lba, b.sectors, maxCount); ok {
		return r, true
	}
	return b.scanUnfilled(0, lba, maxCount)
}

// scanUnfilled returns the first unfilled run in [from, to), capped at
// maxCount sectors. Filled stretches are skipped hierarchically: first to
// the end of the current word, then whole summary words at a time.
func (b *Bitmap) scanUnfilled(from, to, maxCount int64) (Run, bool) {
	i := from
	for i < to {
		w := i / 64
		// Unfilled sectors of the current word at or above i, as set bits.
		open := ^b.words[w] &^ (uint64(1)<<uint(i%64) - 1)
		if open == 0 {
			// The rest of this word is filled: hop via the summary to the
			// next word with a clear bit. Summary bits for words past the
			// end of the bitmap are zero ("not full"), so the hop can land
			// past the last word; the outer i < to check catches that.
			w++
			s := w / 64
			notFull := ^b.summary[s] &^ (uint64(1)<<uint(w%64) - 1)
			for notFull == 0 {
				s++
				if s >= int64(len(b.summary)) {
					return Run{}, false // everything up to the last word is full
				}
				notFull = ^b.summary[s]
			}
			i = (s*64 + int64(bits.TrailingZeros64(notFull))) * 64
			continue
		}
		i = w*64 + int64(bits.TrailingZeros64(open))
		if i >= to {
			return Run{}, false
		}
		// Found the run start; extend to the first filled sector, the scan
		// end, or the cap, a word at a time.
		run := Run{LBA: i}
		for i < to && run.Count < maxCount {
			rest := b.words[i/64] >> uint(i%64)
			zeros := 64 - i%64 // unfilled sectors at/after i in this word
			if rest != 0 {
				zeros = int64(bits.TrailingZeros64(rest))
			}
			if zeros == 0 {
				break
			}
			take := zeros
			if rem := to - i; take > rem {
				take = rem
			}
			if rem := maxCount - run.Count; take > rem {
				take = rem
			}
			run.Count += take
			i += take
			if take == zeros && rest != 0 {
				break // the run ended at a filled sector
			}
		}
		return run, true
	}
	return Run{}, false
}

// Cursor is a per-caller scan position for sweeping a bitmap with repeated
// NextUnfilled calls: each scan resumes where the previous run ended, so
// independent sweepers (the background copier, a prefetcher) do not perturb
// each other's progress.
type Cursor struct {
	pos int64
}

// Pos reports the cursor's current scan position.
func (c *Cursor) Pos() int64 { return c.pos }

// Reset moves the cursor back to sector 0.
func (c *Cursor) Reset() { c.pos = 0 }

// NextUnfilledFrom finds the next unfilled run at or after the cursor
// (wrapping like NextUnfilled) and advances the cursor past it.
func (b *Bitmap) NextUnfilledFrom(c *Cursor, maxCount int64) (Run, bool) {
	r, ok := b.NextUnfilled(c.pos, maxCount)
	if ok {
		c.pos = r.End()
	}
	return r, ok
}

// Marshal serializes the bitmap for on-disk persistence: the VMM saves it
// to an unused disk region across shutdowns (§3.3).
func (b *Bitmap) Marshal() []byte {
	out := make([]byte, 16+len(b.words)*8)
	putU64(out[0:], uint64(b.sectors))
	putU64(out[8:], uint64(b.filled))
	for i, w := range b.words {
		putU64(out[16+i*8:], w)
	}
	return out
}

// UnmarshalBitmap restores a bitmap saved by Marshal.
func UnmarshalBitmap(data []byte) (*Bitmap, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("core: bitmap blob too short: %d bytes", len(data))
	}
	sectors := int64(getU64(data[0:]))
	filled := int64(getU64(data[8:]))
	if sectors <= 0 {
		return nil, fmt.Errorf("core: bitmap blob has invalid sector count %d", sectors)
	}
	b := NewBitmap(sectors)
	if want := 16 + len(b.words)*8; len(data) < want {
		return nil, fmt.Errorf("core: bitmap blob truncated: %d of %d bytes", len(data), want)
	}
	var recount int64
	for i := range b.words {
		w := getU64(data[16+i*8:])
		b.words[i] = w
		recount += int64(bits.OnesCount64(w))
		if w == ^uint64(0) {
			b.summary[i/64] |= 1 << uint(i%64)
		}
	}
	if recount != filled {
		return nil, fmt.Errorf("core: bitmap blob corrupt: header says %d filled, bits say %d", filled, recount)
	}
	b.filled = filled
	return b, nil
}

// PersistSize reports the marshaled size in bytes.
func (b *Bitmap) PersistSize() int64 { return int64(16 + len(b.words)*8) }

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
