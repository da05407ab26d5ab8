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
// The bits live in chunks of 4,096 sectors (64 words). A chunk with no
// sector filled points at the shared emptyChunk and one with every
// sector filled at the shared fullChunk; only a mixed chunk owns
// storage. A 32 GB image is 16,384 chunks, and only those at the copy
// frontier or under scattered guest I/O are mixed (a few hundred in the
// paper-scale cells), so memory follows what the run touched rather
// than the image size. When a chunk fills, its storage
// goes on a spare list for the next chunk that turns mixed; fresh
// storage is carved from batches. Scans step over full chunks by
// pointer comparison, which keeps NextUnfilled cheap late in a
// deployment when almost everything below the copy frontier is filled.
type Bitmap struct {
	sectors int64
	filled  int64
	chunks  []*chunk
	spare   *chunk  // storage released by chunks that filled, linked by next
	batch   []chunk // carved storage not yet handed out
	carved  int     // chunks of storage carved so far
}

const (
	chunkShift   = 12
	chunkSectors = 1 << chunkShift
	chunkWords   = chunkSectors / 64
	// batchChunks caps one carve of fresh chunk storage. A bitmap never
	// carves more than its chunk count, so a small bitmap's only batch
	// is exactly as large as the bitmap.
	batchChunks = 64
)

// chunk is the storage of 4,096 sectors, one bit per sector. In the
// last chunk of a bitmap whose size is not a multiple of 4,096, the
// bits past the end are set (padding), so a complete tail reaches the
// same all-ones state as any other chunk.
type chunk struct {
	w    [chunkWords]uint64
	n    int64  // set bits in w, padding included
	next *chunk // spare-list link
}

// emptyChunk and fullChunk are shared by every bitmap and never written.
var (
	emptyChunk = new(chunk)
	fullChunk  = func() *chunk {
		c := &chunk{n: chunkSectors}
		for i := range c.w {
			c.w[i] = ^uint64(0)
		}
		return c
	}()
)

// NewBitmap returns an all-unfilled bitmap covering the given sectors.
func NewBitmap(sectors int64) *Bitmap {
	if sectors <= 0 {
		panic("core: bitmap must cover a positive sector count")
	}
	chunks := make([]*chunk, (sectors-1)>>chunkShift+1)
	for i := range chunks {
		chunks[i] = emptyChunk
	}
	return &Bitmap{sectors: sectors, chunks: chunks}
}

// own returns fresh storage for chunk ci, all unfilled but its padding.
func (b *Bitmap) own(ci int64) *chunk {
	c := b.spare
	if c != nil {
		b.spare = c.next
		*c = chunk{}
	} else {
		if len(b.batch) == 0 {
			// Every carved chunk is in use by a mixed chunk other than ci,
			// so at least one chunk of storage is left to carve.
			n := min(len(b.chunks)-b.carved, batchChunks)
			b.batch = make([]chunk, n)
			b.carved += n
		}
		c = &b.batch[0]
		b.batch = b.batch[1:]
	}
	if pad := (ci+1)<<chunkShift - b.sectors; pad > 0 {
		c.mark(chunkSectors-pad, chunkSectors)
	}
	return c
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
	return b.chunks[lba>>chunkShift].w[lba>>6%chunkWords]&(1<<uint(lba%64)) != 0
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
// given state, chunk by chunk.
func (b *Bitmap) uniform(lba, count int64, filled bool) bool {
	b.check(lba, count)
	for i, end := lba, lba+count; i < end; {
		base := i >> chunkShift << chunkShift
		cend := min(end, base+chunkSectors)
		if !b.chunks[i>>chunkShift].uniform(i-base, cend-base, filled) {
			return false
		}
		i = cend
	}
	return true
}

// MarkFilled sets [lba, lba+count) filled, returning how many sectors
// changed state.
func (b *Bitmap) MarkFilled(lba, count int64) int64 {
	b.check(lba, count)
	var changed int64
	for i, end := lba, lba+count; i < end; {
		ci := i >> chunkShift
		base := ci << chunkShift
		cend := min(end, base+chunkSectors)
		c := b.chunks[ci]
		if c != fullChunk {
			if c == emptyChunk {
				c = b.own(ci)
				b.chunks[ci] = c
			}
			changed += c.mark(i-base, cend-base)
			if c.n == chunkSectors {
				b.chunks[ci] = fullChunk
				c.next = b.spare
				b.spare = c
			}
		}
		i = cend
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
// slice. It steps over filled and unfilled stretches a word at a time,
// chunk by chunk.
func (b *Bitmap) AppendUnfilledRuns(dst []Run, lba, count int64) []Run {
	b.check(lba, count)
	start := len(dst)
	for i, end := lba, lba+count; i < end; {
		base := i >> chunkShift << chunkShift
		c := b.chunks[i>>chunkShift]
		for cend := min(end, base+chunkSectors); i < cend; {
			word := c.w[(i-base)/64] >> uint(i%64) // bit k: sector i+k is filled
			rest := min(64-i%64, cend-i)           // sectors of this word in range
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
// maxCount sectors. Full chunks are skipped by pointer comparison, the
// rest of a mixed chunk a word at a time.
func (b *Bitmap) scanUnfilled(from, to, maxCount int64) (Run, bool) {
	i := from
	for i < to {
		ci := i >> chunkShift
		c := b.chunks[ci]
		if c == fullChunk {
			chunks, full := b.chunks, fullChunk
			j := int(ci) + 1
			for j < len(chunks) && chunks[j] == full {
				j++
			}
			i = int64(j) << chunkShift
			continue
		}
		base := ci << chunkShift
		w := (i - base) / 64
		// Unfilled sectors of word w at or above i, as set bits.
		open := ^c.w[w] &^ (uint64(1)<<uint(i%64) - 1)
		for open == 0 && w < chunkWords-1 {
			w++
			open = ^c.w[w]
		}
		if open == 0 {
			i = base + chunkSectors
			continue
		}
		i = base + w*64 + int64(bits.TrailingZeros64(open))
		break
	}
	if i >= to {
		return Run{}, false
	}
	// Found the run start; extend to the first filled sector, the scan
	// end, or the cap, one chunk at a time.
	run := Run{LBA: i}
	for i < to && run.Count < maxCount {
		base := i >> chunkShift << chunkShift
		limit := min(to, base+chunkSectors, i+maxCount-run.Count)
		n := b.chunks[i>>chunkShift].unfilledFrom(i-base, limit-base)
		run.Count += n
		i += n
		if i < limit {
			break // the run ended at a filled sector
		}
	}
	return run, true
}

// uniform reports whether every sector in [from, to) of the chunk is in
// the given state, one masked word check at a time.
func (c *chunk) uniform(from, to int64, filled bool) bool {
	for i := from; i < to; {
		off := i % 64
		n := min(64-off, to-i)
		m := rangeMask(off, n)
		want := m
		if !filled {
			want = 0
		}
		if c.w[i/64]&m != want {
			return false
		}
		i += n
	}
	return true
}

// mark sets sectors [from, to) of the chunk filled, returning how many
// changed state.
func (c *chunk) mark(from, to int64) int64 {
	var changed int64
	for i := from; i < to; {
		off := i % 64
		n := min(64-off, to-i)
		if added := rangeMask(off, n) &^ c.w[i/64]; added != 0 {
			c.w[i/64] |= added
			changed += int64(bits.OnesCount64(added))
		}
		i += n
	}
	c.n += changed
	return changed
}

// unfilledFrom counts the unfilled sectors from sector from of the chunk
// up to the first filled one, capped at to.
func (c *chunk) unfilledFrom(from, to int64) int64 {
	i := from
	for i < to {
		off := i % 64
		n := min(int64(bits.TrailingZeros64(c.w[i/64]>>uint(off))), 64-off, to-i)
		i += n
		if off+n < 64 {
			break // a filled sector, or the cap
		}
	}
	return i - from
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
// to an unused disk region across shutdowns (§3.3). The format is flat:
// a header of the sector and filled counts, then one bit per sector in
// little-endian words, the bits past the last sector clear.
func (b *Bitmap) Marshal() []byte {
	nw := (b.sectors-1)/64 + 1
	out := make([]byte, 16+nw*8)
	putU64(out[0:], uint64(b.sectors))
	putU64(out[8:], uint64(b.filled))
	for ci, c := range b.chunks {
		if c == emptyChunk {
			continue // the words are already zero
		}
		for k := int64(0); k < chunkWords; k++ {
			wi := int64(ci)*chunkWords + k
			if wi >= nw {
				break
			}
			putU64(out[16+wi*8:], c.w[k]&b.wordMask(wi))
		}
	}
	return out
}

// wordMask returns the bits of word wi that cover sectors of the bitmap.
func (b *Bitmap) wordMask(wi int64) uint64 {
	if n := b.sectors - wi*64; n < 64 {
		return uint64(1)<<uint(n) - 1
	}
	return ^uint64(0)
}

// UnmarshalBitmap restores a bitmap saved by Marshal. Bytes past the
// bitmap's words (the padding of the disk sectors it was saved in) are
// ignored; a blob whose header disagrees with its bits, or which sets a
// bit past the last sector, is rejected.
func UnmarshalBitmap(data []byte) (*Bitmap, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("core: bitmap blob too short: %d bytes", len(data))
	}
	sectors := int64(getU64(data[0:]))
	filled := int64(getU64(data[8:]))
	if sectors <= 0 {
		return nil, fmt.Errorf("core: bitmap blob has invalid sector count %d", sectors)
	}
	nw := (sectors-1)/64 + 1
	if nw > int64(len(data)-16)/8 {
		return nil, fmt.Errorf("core: bitmap blob truncated: %d of %d bytes", len(data), 16+nw*8)
	}
	b := NewBitmap(sectors)
	var recount int64
	for ci := range b.chunks {
		var words [chunkWords]uint64
		var n int64
		for k := range words {
			wi := int64(ci)*chunkWords + int64(k)
			if wi >= nw {
				break
			}
			w := getU64(data[16+wi*8:])
			if w&^b.wordMask(wi) != 0 {
				return nil, fmt.Errorf("core: bitmap blob corrupt: bits set past sector %d", sectors)
			}
			words[k] = w
			n += int64(bits.OnesCount64(w))
		}
		recount += n
		switch {
		case n == 0:
		case n == min(chunkSectors, sectors-int64(ci)<<chunkShift):
			b.chunks[ci] = fullChunk
		default:
			c := b.own(int64(ci))
			for k, w := range words {
				c.w[k] |= w
			}
			c.n += n
			b.chunks[ci] = c
		}
	}
	if recount != filled {
		return nil, fmt.Errorf("core: bitmap blob corrupt: header says %d filled, bits say %d", filled, recount)
	}
	b.filled = filled
	return b, nil
}

// PersistSize reports the marshaled size in bytes.
func (b *Bitmap) PersistSize() int64 { return 16 + ((b.sectors-1)/64+1)*8 }

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
