// Package vblade implements the AoE target: the storage server that
// exports OS images to deploying instances.
//
// The paper bases its server on the vblade userspace target and observes
// that the original is single-threaded and becomes the bottleneck under
// heavy read load, so it adds a thread pool (§4.2). This model reproduces
// both configurations: request service costs per-fragment CPU time on a
// worker, and the worker pool size decides how much of that cost overlaps.
package vblade

import (
	"sort"

	"repro/internal/aoe"
	"repro/internal/ethernet"
	"repro/internal/hw/disk"
	"repro/internal/hw/nic"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Target is one exported device: an image-backed store addressed by
// shelf.slot. Writes land in the store; reads prefer written data and fall
// back to the image.
type Target struct {
	Major uint16
	Minor uint8
	Image *disk.Image
	store *disk.Store

	// badRanges are injected media-error windows: reads overlapping one
	// before its deadline answer with an AoE error instead of data.
	badRanges []mediaError
}

// mediaError is one injected media-error window on a target.
type mediaError struct {
	lba, count int64
	until      sim.Time
}

// AddMediaError makes reads overlapping [lba, lba+count) fail with an AoE
// error response until the given instant — a disk surface fault that the
// drive's remapping eventually papers over.
func (t *Target) AddMediaError(lba, count int64, until sim.Time) {
	t.badRanges = append(t.badRanges, mediaError{lba: lba, count: count, until: until})
}

// HasMediaError reports whether a read of sector lba at instant now would
// hit an active media-error window — the query form of AddMediaError,
// used by fault-storm tests and health probes. Overlapping windows stack:
// the sector stays faulty until every window covering it has expired.
func (t *Target) HasMediaError(lba int64, now sim.Time) bool {
	return t.mediaFault(lba, 1, now)
}

// mediaFault reports whether a read of [lba, lba+count) at instant now
// hits an active media-error window.
func (t *Target) mediaFault(lba, count int64, now sim.Time) bool {
	for _, b := range t.badRanges {
		if now < b.until && lba < b.lba+b.count && b.lba < lba+count {
			return true
		}
	}
	return false
}

// Server is the AoE target daemon.
type Server struct {
	k   *sim.Kernel
	nic *nic.NIC

	targets map[uint32]*Target
	// rq is the current incarnation's request queue; Restart replaces it.
	rq *requestQueue
	// pool recycles outbound response frames; they come back when the
	// initiator (or a drop point on the path) releases them.
	pool aoe.FramePool
	// cache is the optional shared-image serving cache (see EnableCache);
	// nil keeps the original whole-image-in-page-cache model.
	cache *extentCache

	// Threads is the worker-pool size; 1 reproduces original vblade.
	Threads int
	// PerFragCPU is the processing cost per fragment on one worker. The
	// default calibrates a single-threaded server to saturate below
	// gigabit line rate, as the paper observed.
	PerFragCPU sim.Duration
	// CopyRate is the memory copy rate for payload bytes (images are
	// served from the server's page cache).
	CopyRate float64
	// ColdReadRate is the cold-storage read rate charged on extent-cache
	// misses (only meaningful with EnableCache). The default models a
	// single SATA spindle behind the page cache.
	ColdReadRate float64

	// crashed marks a crashed server: arriving frames are dropped and
	// mid-service workers suppress their responses. Restart clears it.
	crashed bool

	Requests     metrics.Counter
	BytesServed  metrics.Counter
	BytesStored  metrics.Counter
	WriteErrors  metrics.Counter
	UnknownDrops metrics.Counter
	MediaErrors  metrics.Counter
	Crashes      metrics.Counter

	// Extent-cache counters (see EnableCache).
	CacheHits      metrics.Counter
	CacheMisses    metrics.Counter
	CacheEvictions metrics.Counter
	CoalescedReads metrics.Counter

	// Observability (see Instrument): a span per served fragment plus the
	// live queue-depth gauge.
	node  string
	tr    *trace.Recorder
	depth *metrics.Gauge
}

// Instrument adopts the server's counters into reg under "vblade.*" names
// labeled with the node, and makes every served fragment record a span on
// tr (nil tr: no spans). No-op counters on a nil registry.
func (s *Server) Instrument(reg *metrics.Registry, tr *trace.Recorder, node string) {
	s.node, s.tr = node, tr
	l := metrics.L("node", node)
	reg.RegisterCounter("vblade.requests", &s.Requests, l)
	reg.RegisterCounter("vblade.bytes_served", &s.BytesServed, l)
	reg.RegisterCounter("vblade.bytes_stored", &s.BytesStored, l)
	reg.RegisterCounter("vblade.write_errors", &s.WriteErrors, l)
	reg.RegisterCounter("vblade.unknown_drops", &s.UnknownDrops, l)
	reg.RegisterCounter("vblade.media_errors", &s.MediaErrors, l)
	reg.RegisterCounter("vblade.crashes", &s.Crashes, l)
	reg.RegisterCounter("vblade.cache_hits", &s.CacheHits, l)
	reg.RegisterCounter("vblade.cache_misses", &s.CacheMisses, l)
	reg.RegisterCounter("vblade.cache_evictions", &s.CacheEvictions, l)
	reg.RegisterCounter("vblade.coalesced_reads", &s.CoalescedReads, l)
	s.depth = reg.Gauge("vblade.queue_depth", l)
}

// NewServer returns a server speaking through n. Call AddTarget then Start.
func NewServer(k *sim.Kernel, n *nic.NIC, threads int) *Server {
	return &Server{
		k:            k,
		nic:          n,
		targets:      make(map[uint32]*Target),
		rq:           newRequestQueue(k),
		Threads:      threads,
		PerFragCPU:   480 * sim.Microsecond,
		CopyRate:     6e9,
		ColdReadRate: 1.5e8,
	}
}

func targetKey(major uint16, minor uint8) uint32 { return uint32(major)<<8 | uint32(minor) }

// AddTarget exports image at shelf major, slot minor.
func (s *Server) AddTarget(major uint16, minor uint8, img *disk.Image) *Target {
	t := &Target{Major: major, Minor: minor, Image: img, store: disk.NewStore(img.Sectors)}
	t.store.Write(0, img.Sectors, img)
	s.targets[targetKey(major, minor)] = t
	return t
}

// Target returns the exported target at major.minor, or nil.
func (s *Server) Target(major uint16, minor uint8) *Target {
	return s.targets[targetKey(major, minor)]
}

// Store exposes the target's backing store (for test setup/inspection).
func (t *Target) Store() *disk.Store { return t.store }

// Start begins receiving and starts the worker pool. Workers are not
// processes: each is a record whose continuations the kernel calls, and
// each starts with one event at the current instant.
func (s *Server) Start() {
	s.nic.SetOnReceive(func(f *ethernet.Frame) {
		if f.EtherType != aoe.EtherType {
			f.Release()
			return
		}
		// Frames racing a Stop or Crash (already serialized onto the wire,
		// arriving after the queue closed) are dropped, never pushed — a
		// stopped daemon must not panic on late traffic.
		if s.crashed || s.rq.frames.Closed() {
			s.UnknownDrops.Inc()
			f.Release()
			return
		}
		f.QueuedAt = s.k.Now() // queue-wait attribution; overwrites pooled leftovers
		s.rq.push(f)
	})
	for i := 0; i < s.Threads; i++ {
		s.k.After(0, newWorker(s, s.rq).run)
	}
}

// Stop closes the request queue; workers drain queued requests and exit.
// Requests still on the wire are dropped on arrival; their initiators time
// out, retransmit, and eventually fail over or fail.
func (s *Server) Stop() { s.rq.close() }

// Crash models a hard server failure: the queue is discarded along with
// every request in it, arriving frames fall on the floor, and workers
// mid-service never send their responses. Target write state is lost on
// the subsequent Restart (the page cache never reached stable storage).
func (s *Server) Crash() {
	if s.crashed {
		return
	}
	s.crashed = true
	s.Crashes.Inc()
	s.tr.Emit(s.node, "vblade", "crash")
	for { // drop everything already queued
		f, ok := s.rq.frames.TryPop()
		if !ok {
			break
		}
		f.Release()
	}
	s.rq.close() // workers drain to the closed empty queue and exit
	if s.cache != nil {
		s.cache.reset() // the in-memory extent cache dies with the daemon
	}
	if s.depth != nil {
		s.depth.Set(0)
	}
}

// Restart brings a crashed (or stopped) server back: a fresh queue, a
// fresh worker pool, and — for a crash — each target's store reset to the
// pristine image, modeling the loss of all write state.
func (s *Server) Restart() {
	if s.crashed {
		keys := make([]uint32, 0, len(s.targets))
		for k := range s.targets {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			t := s.targets[k]
			t.store = disk.NewStore(t.Image.Sectors)
			t.store.Write(0, t.Image.Sectors, t.Image)
			t.badRanges = nil
		}
	}
	s.crashed = false
	s.rq = newRequestQueue(s.k)
	s.tr.Emit(s.node, "vblade", "restart")
	s.Start()
}

// Crashed reports whether the server is currently crashed.
func (s *Server) Crashed() bool { return s.crashed }

// QueueDepth reports requests waiting for a worker.
func (s *Server) QueueDepth() int { return s.rq.frames.Len() }
