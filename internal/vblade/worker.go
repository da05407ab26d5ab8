package vblade

import (
	"repro/internal/aoe"
	"repro/internal/ethernet"
	"repro/internal/hw/disk"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The worker pool runs as kernel callbacks, not processes. A worker is a
// record with continuations cached at construction; every step at which
// a thread of the real server would block (waiting for a request, the
// per-fragment CPU, the memory copy, a cold-storage fill, a wait on
// another worker's fill) schedules exactly one of them, at the instant
// and in the order the blocking call would have woken. DESIGN.md §5a
// ("Event-driven vblade") gives the ordering rules.

// requestQueue is one server incarnation's request queue: the frames
// waiting for a worker and the workers waiting for a frame. Restart
// builds a new one; workers of the old incarnation finish on theirs.
//
// A push wakes every parked worker, as a broadcast condition variable
// would: the parked workers become one herd, resumed in park order by a
// single event at the push's instant. A herd member that finds the queue
// empty parks again. Workers that park while a herd is pending wait for
// the next push, and herds resume in the order they were woken.
type requestQueue struct {
	k      *sim.Kernel
	frames *sim.Queue[*ethernet.Frame]
	idle   []*worker
	// waking[next:] holds the pending herds in the order they resume,
	// each followed by a nil separator.
	waking []*worker
	next   int
	herdFn func() // cached herd callback
}

func newRequestQueue(k *sim.Kernel) *requestQueue {
	q := &requestQueue{k: k, frames: sim.NewQueue[*ethernet.Frame](k, "vblade.q")}
	q.herdFn = q.herd
	return q
}

// push queues f and, if workers are parked, schedules their herd.
func (q *requestQueue) push(f *ethernet.Frame) {
	q.frames.Push(f)
	if len(q.idle) == 0 {
		return
	}
	q.waking = append(append(q.waking, q.idle...), nil)
	clear(q.idle)
	q.idle = q.idle[:0]
	q.k.After(0, q.herdFn)
}

// herd resumes the oldest pending herd in park order.
func (q *requestQueue) herd() {
	for {
		w := q.waking[q.next]
		q.waking[q.next] = nil
		q.next++
		if w == nil {
			break
		}
		w.run()
	}
	if q.next == len(q.waking) {
		q.waking, q.next = q.waking[:0], 0
	}
}

// close marks the queue closed. Parked workers are dropped: the queue is
// empty whenever a worker is parked, so they would only wake to exit.
// Queued frames are still served by busy workers and pending herds.
func (q *requestQueue) close() {
	q.frames.Close()
	clear(q.idle)
	q.idle = q.idle[:0]
}

// worker is one thread of the server's pool.
type worker struct {
	s  *Server
	rq *requestQueue // the incarnation this worker serves

	// The request in service, copied out of its frame.
	t          *Target
	hdr        aoe.Header
	replyTo    ethernet.MAC
	isWrite    bool
	writeSrc   disk.SectorSource
	lba, count int64
	sp         *trace.Span
	respF      *ethernet.Frame
	resp       *aoe.Message

	// Cached-read state (cache.go): pinned extents, the cursor of the
	// next extent to pin, the extent being filled or waited on, the next
	// worker waiting on the same fill, and the start of the cold stall.
	held     []*cacheExtent
	ext      int64
	wait     *cacheExtent
	nextWait *worker
	coldFrom sim.Time

	// Continuations, built once so that scheduling them never allocates.
	cpuDoneFn, writeDoneFn, readDoneFn, fillDoneFn, wokenFn func()
}

func newWorker(s *Server, rq *requestQueue) *worker {
	w := &worker{s: s, rq: rq}
	w.cpuDoneFn = w.cpuDone
	w.writeDoneFn = w.writeDone
	w.readDoneFn = w.readDone
	w.fillDoneFn = w.fillDone
	w.wokenFn = w.woken
	return w
}

// run takes queued requests until one blocks the worker. On an empty
// queue the worker parks, or exits if the queue is closed.
func (w *worker) run() {
	q := w.rq
	for {
		f, ok := q.frames.TryPop()
		if !ok {
			if !q.frames.Closed() {
				q.idle = append(q.idle, w)
			}
			return
		}
		if w.begin(f) {
			return
		}
	}
}

// begin starts serving one request frame and reports whether it did;
// frames that are not requests to an exported target are dropped.
func (w *worker) begin(f *ethernet.Frame) bool {
	s := w.s
	msg, ok := f.Payload.(*aoe.Message)
	if !ok || msg.IsResponse() {
		s.UnknownDrops.Inc()
		f.Release()
		return false
	}
	t := s.Target(msg.Major, msg.Minor)
	if t == nil {
		s.UnknownDrops.Inc()
		f.Release()
		return false
	}
	s.Requests.Inc()
	if s.depth != nil {
		s.depth.Set(float64(s.rq.frames.Len()))
	}

	// Copy everything the service path needs out of the request, then drop
	// the frame's last reference: the worker blocks below, and the
	// initiator may recycle the request pair for a retransmit meanwhile.
	w.t, w.hdr, w.replyTo, w.isWrite = t, msg.Header, f.Src, msg.IsWrite()
	if w.isWrite {
		w.writeSrc = msg.Payload.Source
	}
	flowID, queuedAt := f.FlowID, f.QueuedAt
	f.Release()
	w.lba, w.count = int64(w.hdr.LBA), int64(w.hdr.Count)

	// The flow link needs a span, so the uninstrumented hot path skips
	// Begin entirely (End is nil-safe).
	if s.tr != nil {
		w.sp = s.tr.Begin(s.node, "aoe", "serve",
			trace.Int("lba", w.lba), trace.Int("count", w.count),
			trace.Int("qwait", int64(s.k.Now().Sub(queuedAt))))
		w.sp.FlowFrom = flowID // links back to the initiator's request span
	}

	w.respF, w.resp = s.pool.Get()
	w.resp.Header = w.hdr
	w.resp.Flags |= aoe.FlagResponse
	s.k.After(s.PerFragCPU, w.cpuDoneFn)
	return true
}

// cpuDone follows the per-fragment CPU: it answers errors at once and
// starts a write's copy-in or a read's extent pinning and copy-out.
func (w *worker) cpuDone() {
	s, t := w.s, w.t
	switch {
	case w.lba < 0 || w.count <= 0 || w.lba+w.count > t.store.Sectors():
		w.resp.Flags |= aoe.FlagError
		w.resp.Error = 1
		if w.isWrite {
			s.WriteErrors.Inc()
		}
		w.finish()
	case !w.isWrite && t.mediaFault(w.lba, w.count, s.k.Now()):
		// Injected media-error window: the drive answers the read with an
		// error status instead of data. The initiator fails over to a
		// secondary target if one is configured, else errors the request.
		w.resp.Flags |= aoe.FlagError
		w.resp.Error = 2
		s.MediaErrors.Inc()
		w.finish()
	case w.isWrite:
		s.k.After(sim.RateDuration(w.count*disk.SectorSize, s.CopyRate), w.writeDoneFn)
	case s.cache != nil:
		// Pin the covering extents, paying cold-storage reads for misses
		// (coalesced with concurrent fills), before the copy-out.
		w.coldFrom = s.k.Now()
		w.ext = w.lba / s.cache.extSectors
		w.pinExtents()
	default:
		w.copyOut()
	}
}

func (w *worker) writeDone() {
	s := w.s
	w.t.store.Write(w.lba, w.count, w.writeSrc)
	s.BytesStored.Add(w.count * disk.SectorSize)
	if s.cache != nil {
		// The store is now the truth; stale cached extents must go.
		s.cache.invalidate(targetKey(w.hdr.Major, w.hdr.Minor), w.lba, w.count)
	}
	w.finish()
}

// pinExtents continues a cached read's pinning from the cursor and
// starts the copy-out once every extent is pinned.
func (w *worker) pinExtents() {
	if w.s.cache.acquire(w) {
		w.copyOut()
	}
}

// fillDone follows this worker's cold-storage fill.
func (w *worker) fillDone() {
	w.s.cache.filled(w)
	w.pinExtents()
}

// woken follows the fill this worker queued on: the extent is pinned or,
// if the fill was dropped, the cursor stays put so acquire resolves the
// extent afresh.
func (w *worker) woken() {
	ext := w.wait
	w.wait = nil
	if !ext.dropped {
		pin(w, ext)
		w.ext++
	}
	w.pinExtents()
}

// copyOut charges a read's memory copy.
func (w *worker) copyOut() {
	s := w.s
	if s.cache != nil && w.sp != nil {
		// Cold-storage stall (miss fill or coalesced wait) as an
		// attribute, so analysis can split service time.
		w.sp.Args = append(w.sp.Args, trace.Int("cold", int64(s.k.Now().Sub(w.coldFrom))))
	}
	s.k.After(sim.RateDuration(w.count*disk.SectorSize, s.CopyRate), w.readDoneFn)
}

func (w *worker) readDone() {
	s := w.s
	w.resp.Payload = w.t.store.ReadPayload(w.lba, w.count)
	s.BytesServed.Add(w.count * disk.SectorSize)
	if s.cache != nil {
		w.held = s.cache.release(w.held)
	}
	w.finish()
}

// finish sends the response, unless the server crashed while this worker
// was mid-service, ends the serve span, and takes the next request.
func (w *worker) finish() {
	s, respF := w.s, w.respF
	if s.crashed {
		respF.Release()
	} else {
		respF.Dst = w.replyTo
		respF.EtherType = aoe.EtherType
		respF.Size = ethernet.HeaderSize + w.resp.WireSize()
		respF.FlowID = w.sp.SpanID() // 0 when untraced; overwrites pooled leftovers
		s.nic.Send(respF)
	}
	w.sp.End()
	w.t, w.writeSrc, w.sp, w.respF, w.resp = nil, nil, nil, nil, nil
	w.run()
}
