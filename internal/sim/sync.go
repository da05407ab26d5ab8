package sim

// Queue is an unbounded FIFO queue with blocking Pop for processes. It is
// the channel of the simulation world: producers push without blocking,
// consumers park until an item is available.
type Queue[T any] struct {
	k        *Kernel
	items    []T
	head     int // index of the next item to pop; items[:head] are consumed
	nonEmpty *Signal
	closed   bool
}

// NewQueue returns an empty queue bound to kernel k.
func NewQueue[T any](k *Kernel, name string) *Queue[T] {
	return &Queue[T]{k: k, nonEmpty: k.NewSignal(name + ".nonempty")}
}

// Push appends v to the queue and wakes any parked consumers.
func (q *Queue[T]) Push(v T) {
	if q.closed {
		panic("sim: push to closed queue")
	}
	q.items = append(q.items, v)
	q.nonEmpty.Broadcast()
}

// TryPop removes and returns the head item without blocking. ok is false if
// the queue is empty. Popping advances a head index rather than re-slicing,
// so a drained queue's backing array is reused instead of reallocated.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.head >= len(q.items) {
		return v, false
	}
	v = q.items[q.head]
	var zero T
	q.items[q.head] = zero // release the reference for the collector
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
}

// Pop blocks the process until an item is available or the queue is closed.
// ok is false only when the queue was closed while empty.
func (q *Queue[T]) Pop(p *Proc) (v T, ok bool) {
	for {
		if v, ok := q.TryPop(); ok {
			return v, true
		}
		if q.closed {
			return v, false
		}
		p.Wait(q.nonEmpty)
	}
}

// Close marks the queue closed, waking blocked consumers. Items already in
// the queue can still be popped.
func (q *Queue[T]) Close() {
	q.closed = true
	q.nonEmpty.Broadcast()
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// Resource is a counting semaphore. It models an exclusive or
// limited-capacity facility (a disk arm, a server thread pool).
//
// Admission is not FIFO. Release frees the unit at once and only
// schedules the blocked waiters' retries, which then race for it in
// wakeup order. A holder that releases and acquires again in the same
// event, or any caller that acquires before the retries run, takes the
// unit ahead of every waiter.
type Resource struct {
	capacity int
	inUse    int
	released Signal
}

// NewResource returns a resource admitting capacity simultaneous holders.
// It builds one object: the release signal, named name+".released", is
// part of the resource.
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{capacity: capacity, released: Signal{k: k, name: name, suffix: ".released"}}
}

// Acquire blocks the process until a unit of the resource is free, then
// takes it.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.capacity {
		p.Wait(&r.released)
	}
	r.inUse++
}

// AcquireWait is Acquire for a callback: it takes a unit if one is free
// and reports true. Otherwise it enqueues w on the resource's release and
// reports false; w's callback then runs at a Release's wakeup, in the
// slot a parked Acquire's would take, and should call AcquireWait again.
func (r *Resource) AcquireWait(w *Waiter) bool {
	if r.inUse >= r.capacity {
		w.Wait(&r.released)
		return false
	}
	r.inUse++
	return true
}

// TryAcquire takes a unit without blocking, reporting whether it succeeded.
func (r *Resource) TryAcquire() bool {
	if r.inUse >= r.capacity {
		return false
	}
	r.inUse++
	return true
}

// Release returns a unit of the resource and wakes waiters.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of unacquired resource")
	}
	r.inUse--
	r.released.Broadcast()
}

// InUse reports the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// Capacity reports the total number of units.
func (r *Resource) Capacity() int { return r.capacity }
