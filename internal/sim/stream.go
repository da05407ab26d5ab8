package sim

import "fmt"

// Stream is a queue of scheduled values that holds one slot in its
// kernel's event heap however many values it queues. Each value is handed
// to the stream's handler at its own instant, in exactly the order, and at
// exactly the instant, that a Kernel.At for it would have fired.
//
// The argument: At draws the sequence number Kernel.At would have drawn
// and keeps its entries in (when, seq) order. The heap slot is keyed by
// the head entry's own (when, seq), so the heap's minimum over every
// stream head and ordinary event is its minimum over all entries, and no
// entry's sequence number ever changes. A stream suits a producer whose
// values mostly arrive in time order, such as frames serialized onto one
// link direction: an insert lands at the tail after one comparison, and
// only an insert ahead of the head (a reordered or duplicated frame)
// re-keys the slot.
type Stream[T any] struct {
	k    *Kernel
	fn   func(T)
	ring []streamEntry[T] // power-of-two capacity, grown only when full
	head int              // ring index of the earliest entry
	n    int              // entries queued
	slot *event           // heap slot keyed by the head entry; nil when empty
	fire func()           // cached s.pop, the slot's callback
}

type streamEntry[T any] struct {
	when Time
	seq  uint64
	v    T
}

// NewStream returns an empty stream on k whose values are delivered to fn.
func NewStream[T any](k *Kernel, fn func(T)) *Stream[T] {
	s := &Stream[T]{k: k, fn: fn}
	s.fire = s.pop
	return s
}

// At schedules v for delivery at instant t, which must not be in the past.
// Values at the same instant are delivered in At order, after events the
// kernel already holds for that instant.
func (s *Stream[T]) At(t Time, v T) {
	k := s.k
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling stream entry at %v before now %v", t, k.now))
	}
	k.seq++
	if s.n == len(s.ring) {
		s.grow()
	}
	// The new entry has the largest seq, so it goes after every entry
	// due at or before t. Scan back from the tail: in-order inserts stop
	// at once.
	mask := len(s.ring) - 1
	i := s.n
	for i > 0 && s.ring[(s.head+i-1)&mask].when > t {
		s.ring[(s.head+i)&mask] = s.ring[(s.head+i-1)&mask]
		i--
	}
	s.ring[(s.head+i)&mask] = streamEntry[T]{when: t, seq: k.seq, v: v}
	s.n++
	switch {
	case s.n == 1:
		s.slot = k.schedule(t, k.seq, s.fire).e
	case i == 0:
		// A new head: re-key the slot to it. Its key only decreases.
		k.queued++
		k.min() // the sift up can reach a vacated root: fill it first
		s.slot.when, s.slot.seq = t, k.seq
		k.siftUp(int(s.slot.index))
	default:
		k.queued++
	}
}

// grow doubles the ring, unwrapping the entries to start at index 0.
func (s *Stream[T]) grow() {
	ring := make([]streamEntry[T], max(16, 2*len(s.ring)))
	for i := 0; i < s.n; i++ {
		ring[i] = s.ring[(s.head+i)&(len(s.ring)-1)]
	}
	s.ring, s.head = ring, 0
}

// pop fires the head entry. The kernel has already taken and recycled the
// slot's record; the next head, if any, takes a fresh slot (the vacated
// root) before the handler runs, so a handler may schedule on this stream.
func (s *Stream[T]) pop() {
	e := &s.ring[s.head]
	v := e.v
	*e = streamEntry[T]{}
	s.head = (s.head + 1) & (len(s.ring) - 1)
	s.n--
	if s.n > 0 {
		h := &s.ring[s.head]
		s.slot = s.k.schedule(h.when, h.seq, s.fire).e
		s.k.queued--
	} else {
		s.slot = nil
	}
	s.fn(v)
}
