package vblade

import (
	"repro/internal/hw/disk"
	"repro/internal/sim"
	"repro/internal/trace"
)

// extentCache is the shared-image serving cache: when N initiators stream
// the same image target, only the first reader of an extent pays the
// cold-storage read; everyone else is served from memory. The default
// server model (cache disabled) assumes the whole image sits in the page
// cache — enabling the cache makes the memory budget explicit, charges
// misses a cold-storage read at the server's ColdReadRate, and coalesces
// overlapping in-flight fills into one disk-model request fanned out to
// all waiters.
//
// Everything is deterministic under the seed discipline: extents are keyed
// arithmetically (no map iteration on any decision path), eviction is a
// clock sweep over an explicit ring in insertion order, and coalesced
// readers queue on the fill and wake in arrival order.
type extentCache struct {
	s          *Server
	budget     int64 // resident-byte budget; the clock sweep enforces it
	extSectors int64 // extent granularity in sectors
	resident   int64 // bytes of completed, undropped extents
	table      map[uint64]*cacheExtent
	ring       []*cacheExtent // clock order: insertion order, hand sweeps
	hand       int
}

// cacheExtent is one cached extent's metadata. The simulation carries no
// actual bytes — the store already holds the data — but the reference
// count, clock bit, and fill state model exactly what a real server-side
// extent cache must track.
type cacheExtent struct {
	key     uint64
	lba     int64 // first sector, for trace events
	bytes   int64
	refs    int  // readers currently copying out of this extent
	refBit  bool // clock reference bit
	filling bool // cold-storage fill in flight; readers queue on it
	dropped bool // evicted, invalidated, or lost to a crash
	stale   bool // invalidated while filling; the filler drops it

	// Workers waiting for the fill, in arrival order, linked through
	// worker.nextWait.
	waitHead, waitTail *worker
}

// EnableCache installs the shared-image serving cache with the given byte
// budget and extent granularity. Call before Start; the default (no cache)
// keeps the original serve-from-page-cache model and timing.
func (s *Server) EnableCache(budgetBytes, extentSectors int64) {
	if budgetBytes <= 0 || extentSectors <= 0 {
		panic("vblade: cache budget and extent size must be positive")
	}
	s.cache = &extentCache{
		s:          s,
		budget:     budgetBytes,
		extSectors: extentSectors,
		table:      make(map[uint64]*cacheExtent),
	}
}

// CacheHitRate reports the fraction of extent lookups served without a
// cold-storage read: resident hits plus reads coalesced onto an in-flight
// fill, over all lookups.
func (s *Server) CacheHitRate() float64 {
	h := s.CacheHits.Value() + s.CoalescedReads.Value()
	m := s.CacheMisses.Value()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// extentKey addresses one extent of one target.
func extentKey(tk uint32, ext int64) uint64 { return uint64(tk)<<40 | uint64(ext) }

// extentBytes reports the byte size of extent ext on a target with the
// given sector count (the tail extent may be short).
func (c *extentCache) extentBytes(sectors, ext int64) int64 {
	n := c.extSectors
	if rem := sectors - ext*c.extSectors; rem < n {
		n = rem
	}
	return n * disk.SectorSize
}

// acquire pins the extents overlapping w's read, from its cursor w.ext
// onward, and appends them to w.held; they are released after the
// copy-out. It reports true once every extent is pinned. On a miss the
// worker fills the extent from cold storage; on an extent another worker
// is filling, it queues on that fill instead of issuing a second disk
// read. Either way acquire reports false, and the worker's continuation
// (fillDone or woken) resumes at the cursor.
func (c *extentCache) acquire(w *worker) bool {
	s := c.s
	tk := targetKey(w.hdr.Major, w.hdr.Minor)
	for ; w.ext*c.extSectors < w.lba+w.count; w.ext++ {
		key := extentKey(tk, w.ext)
		ext, ok := c.table[key]
		if ok && !ext.filling {
			s.CacheHits.Inc()
			pin(w, ext)
			continue
		}
		if ok {
			// Another worker is already reading this extent from cold
			// storage: coalesce onto its fill.
			s.CoalescedReads.Inc()
			w.wait = ext
			if ext.waitTail == nil {
				ext.waitHead = w
			} else {
				ext.waitTail.nextWait = w
			}
			ext.waitTail = w
			return false
		}
		// Miss: this worker fills the extent. The entry is visible in the
		// table before the disk read so concurrent readers coalesce rather
		// than duplicate it.
		s.CacheMisses.Inc()
		ext = &cacheExtent{
			key:     key,
			lba:     w.ext * c.extSectors,
			bytes:   c.extentBytes(w.t.store.Sectors(), w.ext),
			filling: true,
		}
		w.wait = ext
		if s.tr != nil {
			s.tr.Emit(s.node, "vblade", "cache-miss", trace.Int("lba", ext.lba))
		}
		c.table[key] = ext
		c.ring = append(c.ring, ext)
		s.k.After(sim.RateDuration(ext.bytes, s.ColdReadRate), w.fillDoneFn)
		return false
	}
	return true
}

// pin takes a reference on ext for w's read.
func pin(w *worker, ext *cacheExtent) {
	ext.refBit = true
	ext.refs++
	w.held = append(w.held, ext)
}

// filled completes w's cold-storage fill: the extent becomes resident and
// pinned, or — if the server died mid-fill (the cache died with it) or a
// write invalidated the extent meanwhile — it is dropped, and this read
// proceeds uncached (the disk cost is already paid). Either way the queued
// readers wake, one event each, in arrival order.
func (c *extentCache) filled(w *worker) {
	ext := w.wait
	w.wait = nil
	ext.filling = false
	if c.s.crashed || ext.stale {
		if c.table[ext.key] == ext {
			delete(c.table, ext.key)
		}
		ext.dropped = true
	} else {
		c.resident += ext.bytes
		c.evict()
		pin(w, ext)
	}
	for q := ext.waitHead; q != nil; {
		next := q.nextWait
		q.nextWait = nil
		c.s.k.After(0, q.wokenFn)
		q = next
	}
	ext.waitHead, ext.waitTail = nil, nil
	w.ext++
}

// release unpins extents acquired for one serve and resets the scratch.
func (c *extentCache) release(held []*cacheExtent) []*cacheExtent {
	for i, ext := range held {
		ext.refs--
		held[i] = nil
	}
	return held[:0]
}

// evict runs the clock sweep until the cache fits its budget. Referenced
// and in-flight extents are skipped; a first encounter clears the clock
// bit, a second evicts. If every entry is pinned the cache transiently
// exceeds its budget rather than deadlocking.
func (c *extentCache) evict() {
	misses := 0
	for c.resident > c.budget && len(c.ring) > 0 && misses <= 2*len(c.ring) {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		ext := c.ring[c.hand]
		if ext.dropped {
			// Compact entries removed by invalidation or a crash.
			c.ring = append(c.ring[:c.hand], c.ring[c.hand+1:]...)
			continue
		}
		if ext.refs > 0 || ext.filling {
			c.hand++
			misses++
			continue
		}
		if ext.refBit {
			ext.refBit = false
			c.hand++
			misses++
			continue
		}
		delete(c.table, ext.key)
		ext.dropped = true
		c.resident -= ext.bytes
		c.ring = append(c.ring[:c.hand], c.ring[c.hand+1:]...)
		c.s.CacheEvictions.Inc()
		if c.s.tr != nil {
			c.s.tr.Emit(c.s.node, "vblade", "cache-evict", trace.Int("lba", ext.lba))
		}
		misses = 0
	}
}

// invalidate drops cached extents overlapping a write: the store is the
// source of truth, so stale cache copies must go. In-flight fills are
// marked stale and dropped by their filler; pinned extents finish their
// current copy-outs safely (the metadata stays valid) but leave the table
// immediately.
func (c *extentCache) invalidate(tk uint32, lba, count int64) {
	for e := lba / c.extSectors; e*c.extSectors < lba+count; e++ {
		ext, ok := c.table[extentKey(tk, e)]
		if !ok {
			continue
		}
		delete(c.table, ext.key)
		if ext.filling {
			ext.stale = true
			continue
		}
		ext.dropped = true
		c.resident -= ext.bytes
	}
}

// reset empties the cache on a server crash: the in-memory extent cache
// does not survive. Entries are flagged dropped (order-independent — no
// map iteration), so mid-fill workers and coalesced waiters observe the
// loss deterministically when they wake.
func (c *extentCache) reset() {
	for _, ext := range c.ring {
		ext.dropped = true
	}
	c.table = make(map[uint64]*cacheExtent)
	c.ring = c.ring[:0]
	c.hand = 0
	c.resident = 0
}
