package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// refRunUntil is the reference executor for a ShardSet: the plain loop
// that takes the least event over every domain's heap, runs every domain
// in every window and gathers every outbox at every barrier. It shares the
// kernels and their runWindow with ShardSet.RunUntil but none of its
// next-time bookkeeping.
func refRunUntil(s *ShardSet, horizon Time) {
	for {
		t, ok := Time(0), false
		for _, k := range s.domains {
			if e := k.min(); e != nil && (!ok || e.when < t) {
				t, ok = e.when, true
			}
		}
		if !ok || t >= horizon {
			s.frontier = horizon
			if !ok {
				s.frontier = s.windowEnd
			}
			return
		}
		end := t - t%Time(s.window) + Time(s.window)
		s.windowEnd = end
		for _, k := range s.domains {
			k.runWindow(end)
		}
		s.frontier = end
		var posts []xpost
		for _, k := range s.domains {
			posts = append(posts, k.dom.outbox...)
			k.dom.outbox = k.dom.outbox[:0]
		}
		s.dirty = s.dirty[:0]
		slices.SortFunc(posts, func(a, b xpost) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
		})
		for _, x := range posts {
			if x.at < x.dst.now {
				panic(fmt.Sprintf("sim: cross-domain post at %v behind destination clock %v", x.at, x.dst.now))
			}
			x.dst.deliverPost(x)
		}
	}
}

// windowRun drives a ShardSet from a byte program and logs every firing
// as (domain, time, label). Labels are handed out in scheduling order, so
// two executors that fire the same events in the same order log the same
// lines.
type windowRun struct {
	s      *ShardSet
	doms   []*Kernel
	ranks  []Rank
	ranked []bool // domain i's rank has an event pending
	prog   []byte
	pc     int
	ids    int
	log    []string
	// between marks operations outside any window, where a cross-domain
	// post is legal only onto an idle domain (the RunOnNode path before
	// Run): a busy one may pass the post's instant in the window before
	// the barrier that delivers it.
	between bool
}

func (r *windowRun) XDeliver(payload any) {
	d := payload.([2]int)
	r.fire(d[0], d[1])
}

// fire logs one firing and runs the program's next operations on its
// domain.
func (r *windowRun) fire(d, id int) {
	r.log = append(r.log, fmt.Sprintf("d%d %d #%d", d, r.doms[d].Now(), id))
	r.step(d, r.doms[d].Now())
}

// pick maps a byte to one of four domains, so with many domains most of
// them stay idle.
func (r *windowRun) pick(b byte) int {
	n := len(r.doms)
	return [4]int{0, n - 1, n / 2, 1}[b%4]
}

// step runs operations (two bytes each) on domain d until a yield or the
// program's end; now is the base instant of local events. Delays are
// multiples of 10 ns below 160 ns, or of 1 µs when arg's top bit is set,
// against windows of 10 to 80 ns: most posts ask for an arrival inside
// their sending window, and long delays leave windows empty.
func (r *windowRun) step(d int, now Time) {
	k := r.doms[d]
	for r.pc+1 < len(r.prog) {
		op, arg := r.prog[r.pc], r.prog[r.pc+1]
		r.pc += 2
		delay := Duration(arg%16) * 10
		if arg&0x80 != 0 {
			delay *= 100
		}
		at := now.Add(delay)
		dst := r.pick(arg >> 4)
		if r.between && r.doms[dst].Pending() > 0 {
			dst = d
		}
		id := r.ids
		r.ids++
		switch op % 8 {
		case 0:
			k.At(at, func() { r.fire(d, id) })
		case 1:
			if now == k.Now() {
				k.After(delay, func() { r.fire(d, id) })
			} else {
				k.At(at, func() { r.fire(d, id) })
			}
		case 2:
			// At most one pending event per rank, as AtRanked requires.
			if !r.ranked[d] {
				r.ranked[d] = true
				k.AtRanked(at, r.ranks[d], func() {
					r.ranked[d] = false
					r.fire(d, id)
				})
			}
		case 3:
			k.Post(r.doms[dst], at, func() { r.fire(dst, id) })
		case 4:
			k.PostDeliver(r.doms[dst], at, r, [2]int{dst, id})
		case 5:
			// A post due at once: inside a window it lands at the
			// window's end, unless dst is the sending domain.
			k.Post(r.doms[dst], now, func() { r.fire(dst, id) })
		case 6, 7:
			// A yield. Inside a callback, an odd arg also stops the
			// domain's window, so it runs again before the frontier moves.
			if arg%2 == 1 {
				k.Stop()
			}
			return
		}
	}
}

// runWindows runs prog on a fresh set under run (RunUntil or the
// reference) and returns the log, ending with any panic, the frontier, the
// events left and every domain's clock and firing count.
func runWindows(prog []byte, run func(s *ShardSet, horizon Time)) (log []string) {
	n := 2 + int(prog[0])%39
	r := &windowRun{s: NewShardSet(1, Duration(10+int(prog[1])%8*10)), prog: prog, pc: 2}
	for i := 0; i < n; i++ {
		k := r.s.NewDomain(fmt.Sprint("d", i))
		r.doms = append(r.doms, k)
		r.ranks = append(r.ranks, k.NewRank())
	}
	r.ranked = make([]bool, n)
	defer func() {
		if p := recover(); p != nil {
			r.log = append(r.log, fmt.Sprint("panic: ", p))
		}
		r.log = append(r.log, fmt.Sprintf("frontier %d pending %d", r.s.Now(), r.s.Pending()))
		for i, k := range r.doms {
			r.log = append(r.log, fmt.Sprintf("d%d now %d fired %d", i, k.Now(), k.Fired()))
		}
		log = r.log
	}()
	for i := 0; r.pc+1 < len(prog); i++ {
		// Operations between runs act on a domain outside any window,
		// from the frontier or the domain's own later clock.
		d := r.pick(prog[r.pc])
		r.between = true
		r.step(d, max(r.s.Now(), r.doms[d].Now()))
		r.between = false
		run(r.s, r.s.Now().Add(Duration(1+i%7)*37))
	}
	run(r.s, Time(1)<<62)
	return
}

// FuzzShardWindows checks the barrier-window executor against the
// reference that visits every domain in every window: on 2 to 40 domains,
// mostly idle, a program of local At, After and AtRanked events, chains
// of cross-domain Post and PostDeliver, callback stops and operations
// between RunUntil calls of several horizons must log the same firings,
// panics, frontiers and clocks under both.
func FuzzShardWindows(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		want := runWindows(prog, refRunUntil)
		got := runWindows(prog, func(s *ShardSet, horizon Time) { s.RunUntil(horizon, nil) })
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("line %d: got %q, reference %q", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("got %d lines, reference %d", len(got), len(want))
		}
	})
}
