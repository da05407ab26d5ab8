package disk

import (
	"math"

	"repro/internal/hw/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Params is the mechanical/timing model of a drive.
type Params struct {
	Sectors    int64
	SeekMin    sim.Duration // track-to-track seek
	SeekMax    sim.Duration // full-stroke seek
	RotAvg     sim.Duration // average rotational latency (half a revolution)
	ReadRate   float64      // sustained media read rate, bytes/sec
	WriteRate  float64      // sustained media write rate, bytes/sec
	CacheHit   sim.Duration // service time for a drive-cache hit
	CacheSlots int          // number of recently-accessed ranges remembered
	// WriteCacheSectors is the largest write absorbed by the drive's
	// write-back cache: it completes at interface speed without moving
	// the head, and the media commit happens during idle time (which the
	// model treats as free). Larger writes go straight to the media.
	WriteCacheSectors int64
	// CacheAcceptRate is the interface rate for cache-absorbed writes.
	CacheAcceptRate float64
}

// Constellation2 returns parameters for the Seagate Constellation.2
// ST9500620NS (500 GB, 7200 rpm SATA) used in the paper's testbed,
// calibrated to the paper's measured 116.6 MB/s read and 111.9 MB/s write.
func Constellation2() Params {
	return Params{
		Sectors:    500 * 1000 * 1000 * 1000 / SectorSize,
		SeekMin:    500 * sim.Microsecond,
		SeekMax:    16 * sim.Millisecond,
		RotAvg:     4167 * sim.Microsecond, // 7200 rpm: 8.33 ms/rev
		ReadRate:   116.6e6,
		WriteRate:  111.9e6,
		CacheHit:   100 * sim.Microsecond,
		CacheSlots: 32,
		// 64 MB of drive cache absorbs sub-256 KB bursts.
		WriteCacheSectors: 512,
		CacheAcceptRate:   250e6,
	}
}

// Device is a disk drive: the content Store plus the mechanism that
// serializes and times accesses. All accesses go through a single arm.
type Device struct {
	Params
	k     *sim.Kernel
	store *Store
	arm   *sim.Resource
	head  int64 // LBA under the head after the last access

	cache []cachedRange // LRU of recently read ranges (drive cache)

	hints  map[int64]hint // DMA content hints keyed by buffer address (see SetNextDMA)
	dmaBuf []byte         // reusable read buffer for DMA's scatter
	free   *access        // pooled access records

	// Statistics.
	BytesRead    metrics.Counter
	BytesWritten metrics.Counter
	Reads        metrics.Counter
	Writes       metrics.Counter
	Seeks        metrics.Counter
	CacheHits    metrics.Counter
}

type cachedRange struct{ start, end int64 }

// NewDevice returns a drive with the given parameters and an all-zero store.
func NewDevice(k *sim.Kernel, name string, p Params) *Device {
	return &Device{
		Params: p,
		k:      k,
		store:  NewStore(p.Sectors),
		arm:    sim.NewResource(k, name+".arm", 1),
	}
}

// Store exposes the content state (for verification and direct setup).
func (d *Device) Store() *Store { return d.store }

// Head reports the LBA currently under the head.
func (d *Device) Head() int64 { return d.head }

// ServiceTime reports the mechanical time to access count sectors at lba
// from the current head position, without performing the access.
func (d *Device) ServiceTime(lba, count int64, write bool) sim.Duration {
	if !write && d.inCache(lba, count) {
		return d.CacheHit
	}
	if write && d.cachedWrite(count) {
		return d.CacheHit + sim.RateDuration(count*SectorSize, d.CacheAcceptRate)
	}
	rate := d.ReadRate
	if write {
		rate = d.WriteRate
	}
	transfer := sim.RateDuration(count*SectorSize, rate)
	if lba == d.head {
		return transfer // streaming: no seek, no rotational delay
	}
	dist := lba - d.head
	if dist < 0 {
		dist = -dist
	}
	frac := float64(dist) / float64(d.Sectors)
	seek := d.SeekMin + sim.Duration(float64(d.SeekMax-d.SeekMin)*math.Sqrt(frac))
	return seek + d.RotAvg + transfer
}

// cachedWrite reports whether a write of count sectors is absorbed by the
// drive's write-back cache.
func (d *Device) cachedWrite(count int64) bool {
	return d.WriteCacheSectors > 0 && count <= d.WriteCacheSectors
}

func (d *Device) inCache(lba, count int64) bool {
	for _, c := range d.cache {
		if lba >= c.start && lba+count <= c.end {
			return true
		}
	}
	return false
}

func (d *Device) remember(lba, count int64) {
	if d.CacheSlots == 0 {
		return
	}
	if len(d.cache) == d.CacheSlots {
		n := copy(d.cache, d.cache[1:]) // drop the oldest in place; keep the backing array
		d.cache = d.cache[:n]
	}
	d.cache = append(d.cache, cachedRange{start: lba, end: lba + count})
}

// access is one arm access in flight: a blocking Read or Write, whose
// caller is parked until it completes, or a controller's DMA, which
// continues with done. Every access runs the same steps as kernel
// callbacks: take the arm (start), spend the service time, then move the
// data and release the arm (serviced). Records are pooled per drive and
// their steps bound once, when a record is built, so an access allocates
// nothing.
type access struct {
	d          *Device
	lba, count int64
	write      bool
	src        SectorSource  // write content
	pl         Payload       // read content, once serviced
	m          *mem.Memory   // DMA read: memory to scatter into, nil to discard
	sg         []mem.Region  // DMA read: the buffers to scatter into
	p          *sim.Proc     // blocking caller, resumed once serviced
	done       func()        // DMA caller's continuation
	then       func(Payload) // Start caller's continuation
	arm        *sim.Waiter   // waits for the arm when it is taken
	servicedFn func()        // cached serviced step
	next       *access       // free list link
}

// newAccess takes a record from the drive's pool.
func (d *Device) newAccess(lba, count int64, write bool) *access {
	a := d.free
	if a == nil {
		a = &access{d: d}
		a.arm = d.k.NewWaiter(func(bool) { a.start() })
		a.servicedFn = a.serviced
	} else {
		d.free = a.next
	}
	a.lba, a.count, a.write = lba, count, write
	return a
}

// release returns a record to the pool, dropping what it referenced.
func (a *access) release() {
	d := a.d
	a.src, a.pl, a.m, a.sg, a.p, a.done, a.then = nil, Payload{}, nil, nil, nil, nil, nil
	a.next, d.free = d.free, a
}

// start takes the arm, or waits for its release and retries in the slot
// a parked process's wakeup would take, then schedules the end of the
// service time in the slot a sleeping process's wakeup would take.
func (a *access) start() {
	d := a.d
	if !d.arm.AcquireWait(a.arm) {
		return
	}
	t := d.ServiceTime(a.lba, a.count, a.write)
	cached := (!a.write && d.inCache(a.lba, a.count)) || (a.write && d.cachedWrite(a.count))
	if a.lba != d.head && !cached {
		d.Seeks.Inc()
	}
	if cached {
		d.CacheHits.Inc()
	} else {
		d.head = a.lba + a.count
	}
	d.k.After(t, a.servicedFn)
}

// serviced ends the service time: it moves the data, updates the
// statistics, releases the arm and continues the caller inline.
func (a *access) serviced() {
	d := a.d
	if a.write {
		d.store.Write(a.lba, a.count, a.src)
		d.Writes.Inc()
		d.BytesWritten.Add(a.count * SectorSize)
	} else {
		a.pl = d.store.ReadPayload(a.lba, a.count)
		d.Reads.Inc()
		d.BytesRead.Add(a.count * SectorSize)
		d.remember(a.lba, a.count)
	}
	d.arm.Release()
	if a.p != nil {
		a.p.Resume() // the blocking caller takes the result and the record
		return
	}
	if then := a.then; then != nil {
		pl := a.pl
		a.release()
		then(pl)
		return
	}
	if a.m != nil {
		d.dmaBuf = a.pl.AppendTo(d.dmaBuf[:0])
		a.m.Scatter(a.sg, d.dmaBuf)
	}
	done := a.done
	a.release()
	done()
}

// await runs a on the calling process: it parks the process until the
// access's last step resumes it.
func (a *access) await(p *sim.Proc) Payload {
	a.p = p
	a.start()
	p.Suspend()
	pl := a.pl
	a.release()
	return pl
}

// Read performs a blocking read of count sectors at lba, returning the
// content as a (possibly symbolic) payload.
func (d *Device) Read(p *sim.Proc, lba, count int64) Payload {
	return d.newAccess(lba, count, false).await(p)
}

// Write performs a blocking write of count sectors at lba with content from
// src.
func (d *Device) Write(p *sim.Proc, lba, count int64, src SectorSource) {
	a := d.newAccess(lba, count, true)
	a.src = src
	a.await(p)
}

// Start begins a read (write false) or a write of count sectors at lba
// in callback form: done receives the content read, or the zero Payload
// for a write, in the event that ends the access, where the blocking
// Read or Write would have resumed its caller.
func (d *Device) Start(lba, count int64, write bool, src SectorSource, done func(Payload)) {
	a := d.newAccess(lba, count, write)
	a.src, a.then = src, done
	a.start()
}

// Busy reports whether a command is being serviced right now.
func (d *Device) Busy() bool { return d.arm.InUse() > 0 }

// hint is a DMA content annotation: src supplies write data; discard
// marks read data as not-to-be-materialized.
type hint struct {
	src     SectorSource
	discard bool
}

// SetNextDMA annotates the DMA buffer at bufAddr: for a write command
// whose scatter-gather list starts at that buffer, src supplies the
// content; for a read command, discard=true means the data is not
// materialized into guest memory. This is a simulation affordance
// standing in for "the bytes are already in the buffer": performance
// workloads move symbolic payloads without allocating, and keying by
// buffer address keeps guest and VMM hints from ever colliding. The
// controllers' architectural state machines are unaffected.
func (d *Device) SetNextDMA(bufAddr int64, src SectorSource, discard bool) {
	if d.hints == nil {
		d.hints = make(map[int64]hint)
	}
	d.hints[bufAddr] = hint{src: src, discard: discard}
}

// TakeDMAHint removes and returns the annotation for bufAddr. A mediator
// that swallows a guest command takes its hint and re-arms it when the
// command passes through to the device.
func (d *Device) TakeDMAHint(bufAddr int64) (src SectorSource, discard, armed bool) {
	h, ok := d.hints[bufAddr]
	if !ok {
		return nil, false, false
	}
	delete(d.hints, bufAddr)
	return h.src, h.discard, true
}

// DMA starts the data phase of one controller command: count sectors at
// lba move between the drive and the guest buffers that sg lists in m,
// and done runs in the event that ends the access. It takes the hint
// armed at sg[0] first, so a command the drive refuses still consumes it,
// and reports false, moving nothing and never calling done, when the
// range is not on the drive. A write takes its content from the hint, or
// gathers it from sg as a literal source named label; a read is scattered
// into sg unless the hint says discard. sg must stay unchanged until done
// runs.
func (d *Device) DMA(m *mem.Memory, sg []mem.Region, lba, count int64, write bool, label string, done func()) bool {
	var src SectorSource
	var discard bool
	if len(sg) > 0 {
		src, discard, _ = d.TakeDMAHint(sg[0].Start)
	}
	if lba < 0 || count <= 0 || lba+count > d.Sectors {
		return false
	}
	a := d.newAccess(lba, count, write)
	a.done = done
	switch {
	case write && src == nil:
		want := count * SectorSize
		a.src = OwnedBuffer(lba, m.Gather(make([]byte, 0, want), sg, want), label)
	case write:
		a.src = src
	case !discard:
		a.m, a.sg = m, sg
	}
	a.start()
	return true
}
