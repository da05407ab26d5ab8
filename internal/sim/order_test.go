package sim

import "testing"

// orderRun drives a kernel from a byte program and checks every firing
// against a reference model that shares nothing with the heap: a plain
// list of the live entries, whose least entry by (when, rank or scheduling
// order) must be the one that fires, at its own instant.
type orderRun struct {
	t       *testing.T
	k       *Kernel
	streams [2]*Stream[int]
	ranks   [2]Rank
	ranked  [2]bool // rank i has an event pending
	prog    []byte
	pc      int
	ids     int    // entries scheduled so far
	order   uint64 // ordinary entries scheduled so far
	live    []orderEntry
	handles []orderHandle
	fired   int64
}

// orderEntry is the model's record of one scheduled entry.
type orderEntry struct {
	when Time
	key  uint64 // the rank, or seqBase plus the scheduling order
	id   int
}

type orderHandle struct {
	h  Handle
	id int
}

func newOrderRun(t *testing.T, prog []byte) *orderRun {
	r := &orderRun{t: t, k: New(1), prog: prog}
	for i := range r.streams {
		r.streams[i] = NewStream(r.k, r.fire)
		r.ranks[i] = r.k.NewRank()
	}
	return r
}

// add records an entry in the model and returns its id.
func (r *orderRun) add(when Time, key uint64) int {
	if key == 0 {
		r.order++
		key = seqBase + r.order
	}
	id := r.ids
	r.ids++
	r.live = append(r.live, orderEntry{when: when, key: key, id: id})
	return id
}

// find returns the model position of live entry id, or -1.
func (r *orderRun) find(id int) int {
	for i, e := range r.live {
		if e.id == id {
			return i
		}
	}
	return -1
}

// at schedules an ordinary event with Kernel.At and keeps its handle.
func (r *orderRun) at(t Time) Handle {
	id := r.add(t, 0)
	h := r.k.At(t, func() { r.fire(id) })
	r.handles = append(r.handles, orderHandle{h: h, id: id})
	return h
}

// cancel cancels h through the kernel and the model alike. The handle must
// report its entry's instant while the entry is live and zero after.
func (r *orderRun) cancel(oh orderHandle) {
	i := r.find(oh.id)
	want := Time(0)
	if i >= 0 {
		want = r.live[i].when
		r.live = append(r.live[:i], r.live[i+1:]...)
	}
	if got := oh.h.When(); got != want {
		r.t.Fatalf("entry %d: handle reports %v, model %v", oh.id, got, want)
	}
	oh.h.Cancel()
	if oh.h.When() != 0 {
		r.t.Fatalf("entry %d: canceled handle reports %v", oh.id, oh.h.When())
	}
}

// fire checks that entry id is the model's least live entry and is due
// now, drops it, and runs the program's next operations.
func (r *orderRun) fire(id int) {
	if len(r.live) == 0 {
		r.t.Fatalf("entry %d fired with none live", id)
	}
	best := 0
	for i, e := range r.live {
		if b := r.live[best]; e.when < b.when || (e.when == b.when && e.key < b.key) {
			best = i
		}
	}
	if b := r.live[best]; b.id != id || b.when != r.k.Now() {
		r.t.Fatalf("after %d firings: entry %d fired at %v; want entry %d at %v", r.fired, id, r.k.Now(), b.id, b.when)
	}
	if e := r.live[best]; e.key < seqBase {
		if !r.k.Ranked() {
			r.t.Fatalf("ranked entry %d fired with Ranked false", id)
		}
		r.ranked[e.key-uint64(r.ranks[0])] = false
	} else if r.k.Ranked() {
		r.t.Fatalf("ordinary entry %d fired with Ranked true", id)
	}
	r.live = append(r.live[:best], r.live[best+1:]...)
	r.fired++
	r.step()
}

// step runs operations (two bytes each) until a yield or the program's
// end. Delays are multiples of 10 ns below 160 ns, so ties are common and
// stream entries often land ahead of their stream's head.
func (r *orderRun) step() {
	for r.pc+1 < len(r.prog) {
		op, arg := r.prog[r.pc], r.prog[r.pc+1]
		r.pc += 2
		now := r.k.Now()
		delay := Duration(arg%16) * 10
		switch op % 8 {
		case 0:
			r.at(now.Add(delay))
		case 1:
			id := r.add(now.Add(delay), 0)
			h := r.k.After(delay, func() { r.fire(id) })
			r.handles = append(r.handles, orderHandle{h: h, id: id})
		case 2:
			// At most one pending event per rank, as AtRanked requires.
			if i := int(arg>>4) % 2; !r.ranked[i] {
				r.ranked[i] = true
				id := r.add(now.Add(delay), uint64(r.ranks[i]))
				r.k.AtRanked(now.Add(delay), r.ranks[i], func() { r.fire(id) })
			}
		case 3:
			// A live or stale handle, chosen by arg.
			if len(r.handles) > 0 {
				r.cancel(r.handles[int(arg)%len(r.handles)])
			}
		case 4:
			// Cancel at once: when this is a callback's first schedule,
			// the event sits in the root the firing event vacated.
			r.at(now.Add(delay))
			r.cancel(r.handles[len(r.handles)-1])
		case 5:
			s := r.streams[int(arg>>4)%2]
			s.At(now.Add(delay), r.add(now.Add(delay), 0))
		case 6:
			if got := r.k.Pending(); got != len(r.live) {
				r.t.Fatalf("after %d firings: Pending = %d, model holds %d", r.fired, got, len(r.live))
			}
		case 7:
			// A yield. Inside a callback, an odd arg also stops the
			// run, so RunUntil may return with the root still vacated.
			if arg%2 == 1 {
				r.k.Stop()
			}
			return
		}
	}
}

// FuzzKernelOrder checks the event queue against an independent order: a
// program of At, After, AtRanked, stream entries, cancels of live and
// stale handles and stops, run from callbacks and between RunUntil slices,
// must fire every live entry once, in (when, rank or scheduling order),
// and Pending must equal the model's live count inside callbacks and
// between runs.
func FuzzKernelOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		r := newOrderRun(t, prog)
		for {
			r.step() // operations between runs, before any fill
			if got := r.k.Pending(); got != len(r.live) {
				t.Fatalf("between runs after %d firings: Pending = %d, model holds %d", r.fired, got, len(r.live))
			}
			if len(r.live) == 0 && r.pc+1 >= len(prog) {
				break
			}
			r.k.RunUntil(r.k.Now().Add(40))
		}
		if r.k.Fired() != r.fired {
			t.Fatalf("kernel fired %d, model saw %d", r.k.Fired(), r.fired)
		}
	})
}
