package trace

import (
	"sort"

	"repro/internal/sim"
)

// Lane support for the sharded sim kernel (DESIGN.md §13). Each shard
// domain records into its own Recorder ("lane") timed by the domain's
// kernel, so recording never crosses a domain boundary during a window.
// Lanes get disjoint ID ranges via SetIDBase so span IDs — which flow
// across domains inside frames (FlowID) — stay globally unique, and
// Merge folds the lanes into one canonical recorder after the run.

// SetIDBase moves the recorder's span-ID counter to base, so the next
// Begin returns base+1. Lanes of a sharded run use disjoint bases
// derived from the (fixed) domain index, making IDs unique across the
// whole run without cross-lane coordination. Calling it on a non-empty
// recorder or moving the counter backwards panics: ID ranges must be
// reserved up front, not spliced in.
func (r *Recorder) SetIDBase(base int64) {
	if r == nil {
		return
	}
	if len(r.spans) > 0 || base < r.nextID {
		panic("trace: SetIDBase on a live recorder")
	}
	r.nextID = base
}

// Merge folds lanes into a single recorder in canonical order: spans by
// (Start, ID), events by (Time, lane index, lane position). Lane
// contents depend only on the seed and the partition, and lane order is
// the fixed domain order, so the merged trace is byte-stable for a given
// seed. The merged recorder is timed by clock
// (typically a FixedClock at the set frontier); span pointers are shared
// with the lanes, not copied.
func Merge(clock Clock, lanes ...*Recorder) *Recorder {
	m := NewRecorder(clock)
	type taggedEvent struct {
		e    Event
		lane int
		pos  int
	}
	var evs []taggedEvent
	for li, lane := range lanes {
		if lane == nil {
			continue
		}
		for _, s := range lane.spans {
			s.r = m
			m.spans = append(m.spans, s)
			if s.ID > m.nextID {
				m.nextID = s.ID
			}
		}
		for pi, e := range lane.events {
			evs = append(evs, taggedEvent{e: e, lane: li, pos: pi})
		}
	}
	sort.SliceStable(m.spans, func(i, j int) bool {
		a, b := m.spans[i], m.spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.ID < b.ID
	})
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.e.Time != b.e.Time {
			return a.e.Time < b.e.Time
		}
		if a.lane != b.lane {
			return a.lane < b.lane
		}
		return a.pos < b.pos
	})
	m.events = make([]Event, len(evs))
	for i, te := range evs {
		m.events[i] = te.e
	}
	return m
}

// LaneClock is a Clock that follows whichever lane kernel last advanced;
// unused for merged recorders but handy in tests.
type LaneClock struct{ K *sim.Kernel }

// Now returns the lane kernel's clock.
func (c LaneClock) Now() sim.Time { return c.K.Now() }
