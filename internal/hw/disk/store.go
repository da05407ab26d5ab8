package disk

import (
	"fmt"
	"slices"
	"sort"
)

// Extent is a half-open sector range [Start, End) whose content comes from
// Source.
type Extent struct {
	Start, End int64
	Source     SectorSource
}

func (e Extent) String() string {
	return fmt.Sprintf("[%d,%d)=%s", e.Start, e.End, e.Source.Name())
}

// maxChunk bounds the extents one chunk holds, and so the copying a write
// does: a write moves at most one chunk's tail, never the whole list.
const maxChunk = 128

// minChunk is the length below which a chunk merges into a neighbour that
// has room. No two adjacent chunks are both shorter than minChunk, so the
// chunk count stays within about 3n/minChunk for n extents.
const minChunk = maxChunk / 4

// Store is the content state of a disk: a total, ordered, non-overlapping
// cover of [0, Sectors) by extents. A fresh store is one zero extent — the
// "all blocks empty" state of an undeployed local disk.
//
// The extents are kept fully coalesced (no two neighbours share a source)
// in a two-level list: concatenated, chunks give the cover in order. Every
// chunk is non-empty and holds at most maxChunk extents. Chunk arrays are
// reused for the life of the store; a fresh store's one array starts small
// and grows, so the many small stores of a fleet stay small.
type Store struct {
	sectors int64
	chunks  [][]Extent
	// gather is the build buffer of a write whose result does not fit back
	// into one chunk; spare holds chunk arrays retired by merges, reused by
	// splits. Together they keep steady-state writes allocation-free.
	gather []Extent
	spare  [][]Extent
}

// NewStore returns an all-zero store of the given size in sectors.
func NewStore(sectors int64) *Store {
	if sectors <= 0 {
		panic("disk: store must have a positive sector count")
	}
	return &Store{sectors: sectors, chunks: [][]Extent{{{Start: 0, End: sectors, Source: Zero}}}}
}

// Sectors reports the store capacity in sectors.
func (s *Store) Sectors() int64 { return s.sectors }

func (s *Store) checkRange(lba, count int64) {
	if lba < 0 || count <= 0 || lba+count > s.sectors {
		panic(fmt.Sprintf("disk: range [%d,+%d) outside %d-sector store", lba, count, s.sectors))
	}
}

// find returns the chunk, and the index within it, of the extent
// containing lba.
func (s *Store) find(lba int64) (int, int) {
	c := sort.Search(len(s.chunks), func(i int) bool {
		ch := s.chunks[i]
		return ch[len(ch)-1].End > lba
	})
	ch := s.chunks[c]
	return c, sort.Search(len(ch), func(i int) bool { return ch[i].End > lba })
}

// Write records that sectors [lba, lba+count) now have content from src.
//
// The overwritten extents are replaced by at most three: the left
// remainder of the first, the new extent, and the right remainder of the
// last. Because the list was fully coalesced, the new extent can only
// merge with what touches it — a remainder of its own source, or the
// untouched extent just before or after it — and nothing else can merge.
func (s *Store) Write(lba, count int64, src SectorSource) {
	s.checkRange(lba, count)
	end := lba + count
	c0, i0 := s.find(lba)
	c1, i1 := c0, i0
	if s.chunks[c0][i0].End < end {
		c1, i1 = s.find(end - 1)
	}
	first, last := s.chunks[c0][i0], s.chunks[c1][i1]
	var repl [3]Extent
	n := 0
	start := lba
	switch {
	case first.Source == src:
		start = first.Start
	case first.Start < lba:
		repl[n] = Extent{Start: first.Start, End: lba, Source: first.Source}
		n++
	case i0 > 0 && s.chunks[c0][i0-1].Source == src:
		i0--
		start = s.chunks[c0][i0].Start
	case i0 == 0 && c0 > 0 && s.chunks[c0-1][len(s.chunks[c0-1])-1].Source == src:
		c0--
		i0 = len(s.chunks[c0]) - 1
		start = s.chunks[c0][i0].Start
	}
	var tail Extent
	hasTail := false
	switch {
	case last.Source == src:
		end = last.End
	case last.End > end:
		tail, hasTail = Extent{Start: end, End: last.End, Source: last.Source}, true
	case i1+1 < len(s.chunks[c1]) && s.chunks[c1][i1+1].Source == src:
		i1++
		end = s.chunks[c1][i1].End
	case i1+1 == len(s.chunks[c1]) && c1+1 < len(s.chunks) && s.chunks[c1+1][0].Source == src:
		c1, i1 = c1+1, 0
		end = s.chunks[c1][0].End
	}
	repl[n] = Extent{Start: start, End: end, Source: src}
	n++
	if hasTail {
		repl[n] = tail
		n++
	}
	s.splice(c0, i0, c1, i1, repl[:n])
}

// splice replaces the extents from chunk c0 index i0 through chunk c1
// index i1, inclusive, with repl.
func (s *Store) splice(c0, i0, c1, i1 int, repl []Extent) {
	if c0 == c1 {
		old := s.chunks[c0]
		if n := len(old) - (i1 - i0 + 1) + len(repl); n <= maxChunk {
			if n > cap(old) {
				old = slices.Grow(old, n-len(old))
			}
			ch := old[:n]
			copy(ch[i0+len(repl):], old[i1+1:])
			copy(ch[i0:], repl)
			if n < len(old) {
				clear(old[n:])
			}
			s.chunks[c0] = ch
			s.settle(c0)
			return
		}
	}
	g := append(s.gather[:0], s.chunks[c0][:i0]...)
	g = append(g, repl...)
	g = append(g, s.chunks[c1][i1+1:]...)
	s.gather = g
	s.refill(c0, c1, g)
	clear(g)
	s.settle(c0)
}

// refill replaces chunks c0 through c1 with g, split evenly over as few
// chunks as hold it. The arrays of the replaced chunks are reused first.
func (s *Store) refill(c0, c1 int, g []Extent) {
	have := c1 - c0 + 1
	need := (len(g) + maxChunk - 1) / maxChunk
	for ; have < need; have++ {
		s.chunks = slices.Insert(s.chunks, c1+1, s.newChunk())
	}
	for _, ch := range s.chunks[c0+need : c0+have] {
		clear(ch)
		s.spare = append(s.spare, ch[:0])
	}
	s.chunks = slices.Delete(s.chunks, c0+need, c0+have)
	for p := 0; p < need; p++ {
		part := g[p*len(g)/need : (p+1)*len(g)/need]
		ch := s.chunks[c0+p]
		clear(ch)
		s.chunks[c0+p] = append(ch[:0], part...)
	}
}

// newChunk returns an empty chunk array, reusing a spare one if any.
func (s *Store) newChunk() []Extent {
	if n := len(s.spare); n > 0 {
		ch := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return ch
	}
	return make([]Extent, 0, maxChunk)
}

// settle merges chunk c into its shorter neighbour when c is shorter than
// minChunk and the two fit in one chunk.
func (s *Store) settle(c int) {
	if len(s.chunks[c]) >= minChunk || len(s.chunks) == 1 {
		return
	}
	a := c // merge chunks a and a+1
	if c == len(s.chunks)-1 || c > 0 && len(s.chunks[c-1]) < len(s.chunks[c+1]) {
		a = c - 1
	}
	lo, hi := s.chunks[a], s.chunks[a+1]
	if len(lo)+len(hi) > maxChunk {
		return
	}
	s.chunks[a] = append(lo, hi...)
	clear(hi)
	s.spare = append(s.spare, hi[:0])
	s.chunks = slices.Delete(s.chunks, a+1, a+2)
}

// ReadAt materializes the content of sectors [lba, lba+len(buf)/SectorSize)
// into buf.
func (s *Store) ReadAt(lba int64, buf []byte) {
	if len(buf)%SectorSize != 0 {
		panic("disk: ReadAt buffer not a multiple of the sector size")
	}
	s.checkRange(lba, int64(len(buf)/SectorSize))
	c, i := s.find(lba)
	s.fill(c, i, lba, buf)
}

// fill materializes buf from lba on, starting at the extent at chunk c
// index i and walking forward through the list.
func (s *Store) fill(c, i int, lba int64, buf []byte) {
	for len(buf) > 0 {
		e := s.chunks[c][i]
		n := min(e.End-lba, int64(len(buf)/SectorSize))
		e.Source.Fill(lba, buf[:n*SectorSize])
		lba += n
		buf = buf[n*SectorSize:]
		if i++; i == len(s.chunks[c]) {
			c, i = c+1, 0
		}
	}
}

// SourceAt reports the source providing the content of sector lba.
func (s *Store) SourceAt(lba int64) SectorSource {
	s.checkRange(lba, 1)
	c, i := s.find(lba)
	return s.chunks[c][i].Source
}

// ReadPayload returns a payload for [lba, lba+count). When a single source
// covers the whole range the payload stays symbolic; otherwise content is
// materialized into a literal buffer.
func (s *Store) ReadPayload(lba, count int64) Payload {
	s.checkRange(lba, count)
	c, i := s.find(lba)
	if e := s.chunks[c][i]; e.End >= lba+count {
		return Payload{LBA: lba, Count: count, Source: e.Source}
	}
	buf := make([]byte, count*SectorSize)
	s.fill(c, i, lba, buf)
	return Payload{LBA: lba, Count: count, Source: OwnedBuffer(lba, buf, "materialized")}
}

// Extents returns a copy of the extent list.
func (s *Store) Extents() []Extent {
	n := 0
	for _, ch := range s.chunks {
		n += len(ch)
	}
	out := make([]Extent, 0, n)
	for _, ch := range s.chunks {
		out = append(out, ch...)
	}
	return out
}

// CountBySource reports the number of sectors attributed to each source
// name — the provenance summary used by deployment verification.
func (s *Store) CountBySource() map[string]int64 {
	m := make(map[string]int64)
	for _, ch := range s.chunks {
		for _, e := range ch {
			m[e.Source.Name()] += e.End - e.Start
		}
	}
	return m
}
