package aoe

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/sim"
)

// ringTransport is a polled rx ring a test fills by hand: land queues a
// frame and runs the arrival hook, as nic.NIC.Deliver does, and TryRecv
// logs every frame it hands out with the instant it was taken.
type ringTransport struct {
	k         *sim.Kernel
	rx        []*ethernet.Frame
	onArrival func()
	taken     []string // "frame@instant" (µs), in take order
}

func (rt *ringTransport) Send(*ethernet.Frame)               { panic("ringTransport: unexpected send") }
func (rt *ringTransport) MTU() int64                         { return 9018 }
func (rt *ringTransport) SetOnReceive(func(*ethernet.Frame)) {}
func (rt *ringTransport) SetOnArrival(fn func())             { rt.onArrival = fn }
func (rt *ringTransport) RxPending() int                     { return len(rt.rx) }

func (rt *ringTransport) TryRecv() (*ethernet.Frame, bool) {
	if len(rt.rx) == 0 {
		return nil, false
	}
	f := rt.rx[0]
	rt.rx = rt.rx[1:]
	rt.taken = append(rt.taken, fmt.Sprintf("%v@%dus", f.Payload, micros(rt.k.Now())))
	return f, true
}

// land queues frame id on the ring now.
func (rt *ringTransport) land(id int) {
	rt.rx = append(rt.rx, &ethernet.Frame{Payload: id})
	if rt.onArrival != nil {
		rt.onArrival()
	}
}

// landAt queues frame id at instant t, from an ordinary event.
func (rt *ringTransport) landAt(t sim.Time, id int) { rt.k.At(t, func() { rt.land(id) }) }

// polledRig is an initiator in polled mode over a ringTransport. Its
// poll interval is 100 µs until a test changes step, and ticks logs the
// instant of every interval evaluation: SetPolled's, then one per tick.
type polledRig struct {
	k     *sim.Kernel
	rt    *ringTransport
	in    *Initiator
	step  sim.Duration
	ticks []int64 // µs
}

func newPolledRig() *polledRig {
	k := sim.New(1)
	rt := &ringTransport{k: k}
	r := &polledRig{k: k, rt: rt, step: 100 * sim.Microsecond}
	r.in = NewInitiator(k, rt, 0x0A, 0, 0)
	return r
}

func (r *polledRig) setPolled() {
	r.in.SetPolled(func() sim.Duration {
		r.ticks = append(r.ticks, micros(r.k.Now()))
		return r.step
	})
}

func us(n int64) sim.Time { return sim.Time(n * int64(sim.Microsecond)) }

func micros(t sim.Time) int64 { return int64(t) / int64(sim.Microsecond) }

// TestPolledIdleFiresNothing: with nothing arriving, a polled initiator
// costs no events at all.
func TestPolledIdleFiresNothing(t *testing.T) {
	r := newPolledRig()
	r.setPolled()
	r.k.RunUntil(sim.Time(sim.Second))
	if n := r.k.Fired(); n != 0 {
		t.Fatalf("idle polled initiator fired %d events over 1s, want 0", n)
	}
}

// TestPolledGridArming: a frame landing between grid points is taken at
// the next point, one landing exactly on a grid point at the point after
// (the ranked tick at that instant has already run), and the grid moves
// to the last tick's instant and interval.
func TestPolledGridArming(t *testing.T) {
	r := newPolledRig()
	r.setPolled()                                             // grid 0, step 100 µs
	r.rt.landAt(us(250), 1)                                   // between points: tick at 300
	r.rt.landAt(us(260), 2)                                   // a tick is armed already
	r.k.At(us(299), func() { r.step = 70 * sim.Microsecond }) // the 300 µs tick's interval
	r.rt.landAt(us(580), 3)                                   // on 300 + 4·70: tick at 650
	r.rt.landAt(us(1000), 4)                                  // on 650 + 5·70: tick at 1070
	r.rt.landAt(us(1001), 5)
	r.rt.landAt(us(1100), 6) // between 1070 and 1140
	r.k.Run()
	want := "[1@300us 2@300us 3@650us 4@1070us 5@1070us 6@1140us]"
	if got := fmt.Sprint(r.rt.taken); got != want {
		t.Fatalf("frames taken %s, want %s", got, want)
	}
	wantTicks := "[0 300 650 1070 1140]"
	if got := fmt.Sprint(r.ticks); got != wantTicks {
		t.Fatalf("ticks at %s, want %s", got, wantTicks)
	}
}

// TestPolledTakesOverQueuedFrames: frames already queued when SetPolled
// runs (a closed initiator on the same NIC left them) are taken at the
// first grid point, one interval later.
func TestPolledTakesOverQueuedFrames(t *testing.T) {
	r := newPolledRig()
	r.k.At(us(40), func() {
		r.rt.land(1)
		r.rt.land(2)
		r.setPolled()
	})
	r.k.Run()
	if got, want := fmt.Sprint(r.rt.taken), "[1@140us 2@140us]"; got != want {
		t.Fatalf("frames taken %s, want %s", got, want)
	}
}

// TestPolledCloseStopsTicks: after Close no tick drains the ring and no
// landing frame arms one; a tick armed before Close fires once, empty.
func TestPolledCloseStopsTicks(t *testing.T) {
	r := newPolledRig()
	r.setPolled()
	r.rt.landAt(us(150), 1)
	r.k.At(us(160), func() { r.in.Close() })
	r.rt.landAt(us(500), 2)
	r.k.Run()
	fired := r.k.Fired()
	if len(r.rt.taken) != 0 || r.rt.RxPending() != 2 {
		t.Fatalf("closed initiator took %v, %d frames left queued; want none taken, 2 queued", r.rt.taken, r.rt.RxPending())
	}
	r.k.RunUntil(sim.Time(sim.Second))
	// Three landings and the close are ordinary events; the armed tick is
	// the only other.
	if fired != 4 || r.k.Fired() != fired {
		t.Fatalf("fired %d then %d events, want 4 and no more", fired, r.k.Fired())
	}
}

// TestPolledFrameDuringRankedEventPanics: lazy arming assumes no frame
// lands during a ranked event, so a landing there is refused.
func TestPolledFrameDuringRankedEventPanics(t *testing.T) {
	r := newPolledRig()
	r.setPolled()
	r.k.AtRanked(us(50), r.k.NewRank(), func() { r.rt.land(1) })
	defer func() {
		if recover() == nil {
			t.Fatal("a frame landing during a ranked event did not panic")
		}
	}()
	r.k.Run()
}

// TestPolledMatchesEveryTick replays random landings against a reference
// poller that ticks at every grid point, re-arming each tick with
// AtRanked as the polling thread would, with an interval that changes
// only when frames are taken. Both must take every frame at the same
// instant; the lazy one fires only the ticks that find a frame.
func TestPolledMatchesEveryTick(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var lands []sim.Time
		at := sim.Time(0)
		for i := 0; i < 40; i++ {
			// Mostly off-grid gaps, some on multiples of 10 µs so
			// landings hit grid points.
			at = at.Add(sim.Duration(rng.Intn(30)) * 10 * sim.Microsecond)
			if rng.Intn(2) == 0 {
				at = at.Add(sim.Duration(rng.Intn(10000)))
			}
			lands = append(lands, at)
		}
		interval := func(taken int) sim.Duration {
			return sim.Duration(20+10*(taken%5)) * sim.Microsecond
		}

		lazy := newPolledRig()
		lazy.in.SetPolled(func() sim.Duration { return interval(len(lazy.rt.taken)) })
		for i, t := range lands {
			lazy.rt.landAt(t, i)
		}
		lazy.k.RunUntil(lands[len(lands)-1].Add(sim.Second))

		k := sim.New(1)
		ref := &ringTransport{k: k}
		rank := k.NewRank()
		ticks := 0
		var tick func()
		tick = func() {
			ticks++
			for {
				if _, ok := ref.TryRecv(); !ok {
					break
				}
			}
			k.AtRanked(k.Now().Add(interval(len(ref.taken))), rank, tick)
		}
		k.AtRanked(k.Now().Add(interval(0)), rank, tick)
		for i, t := range lands {
			ref.landAt(t, i)
		}
		k.RunUntil(lands[len(lands)-1].Add(sim.Second))

		if got, want := fmt.Sprint(lazy.rt.taken), fmt.Sprint(ref.taken); got != want {
			t.Fatalf("seed %d: lazy ticks took\n%s\nevery-tick poller took\n%s", seed, got, want)
		}
		if lazy.k.Fired() >= k.Fired() {
			t.Fatalf("seed %d: lazy run fired %d events, every-tick run %d", seed, lazy.k.Fired(), k.Fired())
		}
	}
}
