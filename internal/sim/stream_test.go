package sim

import (
	"fmt"
	"testing"
)

// streamTwin runs one program of scheduling operations on a kernel. On the
// stream side, entries go onto two Streams; on the plain side, each entry
// is its own Kernel.At. Every fired event logs (time, id) and runs the
// program's next operations, so entries are also inserted while the
// streams are busy.
type streamTwin struct {
	k       *Kernel
	streams [2]*Stream[int] // nil on the plain side
	prog    []byte
	pc      int
	ids     int
	handles []Handle
	log     []string
}

func newStreamTwin(prog []byte, streamed bool) *streamTwin {
	tw := &streamTwin{k: New(1), prog: prog}
	if streamed {
		for i := range tw.streams {
			tw.streams[i] = NewStream(tw.k, tw.fire)
		}
	}
	return tw
}

func (tw *streamTwin) fire(id int) {
	tw.log = append(tw.log, fmt.Sprintf("%d:%d", tw.k.Now(), id))
	tw.step()
}

// entry schedules the next id on stream i at t, or with Kernel.At.
func (tw *streamTwin) entry(i int, t Time) {
	id := tw.ids
	tw.ids++
	if s := tw.streams[i]; s != nil {
		s.At(t, id)
		return
	}
	tw.k.At(t, func() { tw.fire(id) })
}

// step runs operations (two bytes each) until a yield or the program's
// end. Delays are small multiples of 10 ns, so ties are common and a new
// entry often lands ahead of entries already queued.
func (tw *streamTwin) step() {
	for tw.pc+1 < len(tw.prog) {
		op, arg := tw.prog[tw.pc], tw.prog[tw.pc+1]
		tw.pc += 2
		now := tw.k.Now()
		delay := Duration(arg%16) * 10
		switch op % 6 {
		case 0, 1:
			tw.entry(int(op%2), now.Add(delay))
		case 2:
			tw.entry(int(arg%2), now) // a tie with everything due now
		case 3:
			id := tw.ids
			tw.ids++
			tw.handles = append(tw.handles, tw.k.At(now.Add(delay), func() { tw.fire(id) }))
		case 4:
			if len(tw.handles) > 0 {
				tw.handles[int(arg)%len(tw.handles)].Cancel()
			}
		case 5:
			return
		}
	}
}

// FuzzStream checks a Stream against plain Kernel.At: the same program run
// on both must fire every entry at the same instant in the same order,
// and Pending must agree after every step. The stream side never holds
// more heap slots than the plain side: one per busy stream against one
// per entry.
func FuzzStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		a, b := newStreamTwin(prog, true), newStreamTwin(prog, false)
		a.step()
		b.step()
		for {
			if a.k.Pending() != b.k.Pending() {
				t.Fatalf("after %d events: Pending %d with streams, %d without", len(a.log), a.k.Pending(), b.k.Pending())
			}
			if a.k.slots() > b.k.slots() {
				t.Fatalf("after %d events: %d heap slots with streams, %d without", len(a.log), a.k.slots(), b.k.slots())
			}
			sa, sb := a.k.step(), b.k.step()
			if sa != sb {
				t.Fatalf("after %d events: one kernel ran dry first", len(a.log))
			}
			if !sa {
				break
			}
		}
		if fmt.Sprint(a.log) != fmt.Sprint(b.log) {
			t.Fatalf("fire logs differ:\nstreams %v\nplain   %v", a.log, b.log)
		}
	})
}

// slots reports the heap slots in use, not counting a vacated root.
func (k *Kernel) slots() int { k.min(); return len(k.heap) }

func TestStreamOneHeapSlot(t *testing.T) {
	k := New(1)
	var got []int
	s := NewStream(k, func(v int) { got = append(got, v) })
	for i := 0; i < 100; i++ {
		s.At(Time(i+1), i)
	}
	if k.Pending() != 100 || k.slots() != 1 {
		t.Fatalf("Pending = %d, heap slots = %d; want 100 and 1", k.Pending(), k.slots())
	}
	k.Run()
	if len(got) != 100 || k.Pending() != 0 {
		t.Fatalf("delivered %d, Pending %d; want 100 and 0", len(got), k.Pending())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("entry %d delivered as %d", i, v)
		}
	}
}

// TestStreamInsertAheadOfHead re-keys the stream's slot: an entry due
// before the head must fire before an ordinary event that sits between
// the two.
func TestStreamInsertAheadOfHead(t *testing.T) {
	k := New(1)
	var got []string
	s := NewStream(k, func(v string) { got = append(got, v) })
	s.At(30, "late")
	k.At(20, func() { got = append(got, "event") })
	s.At(10, "early")
	s.At(30, "tie") // same instant as "late", scheduled after it
	k.Run()
	if want := "[early event late tie]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

func TestStreamZeroAllocAmortized(t *testing.T) {
	k := New(1)
	s := NewStream(k, func(int) {})
	for i := 0; i < 64; i++ { // grow the ring and warm the free list
		s.At(Time(i), i)
	}
	k.Run()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			s.At(k.Now().Add(Duration(i)), i)
		}
		k.Run()
	})
	if avg != 0 {
		t.Fatalf("64 stream entries allocate %.2f objects, want 0", avg)
	}
}
