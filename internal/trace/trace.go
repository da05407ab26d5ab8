// Package trace is the simulation's structured tracing layer: typed
// events and spans (begin/end with attributes) recorded against the
// simulated clock into an append-only buffer.
//
// Every deployment phase, mediated command, AoE round trip, and VM exit
// becomes a span or event here, which makes the paper's timeline
// evaluation (§5, Figs. 4–14) machine-checkable: tests assert span
// ordering and containment (e.g. no mediated-I/O span after the
// Devirtualization span closes), and the whole buffer exports to Chrome
// trace-event JSON loadable in Perfetto or chrome://tracing.
//
// A nil *Recorder is valid everywhere and records nothing; every method
// is guarded by a single pointer check, so instrumented hot paths cost
// one predictable branch when tracing is off.
package trace

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Clock provides the trace timebase. *sim.Kernel satisfies it.
type Clock interface {
	Now() sim.Time
}

// Attr is one key/value attribute attached to a span or event. Values
// are exported into the Chrome trace "args" object as-is. An integer
// attribute keeps its value in the typed Num field, so building one does
// not box it; every other value lives in Value.
type Attr struct {
	Key   string
	Kind  AttrKind
	Num   int64 // the value when Kind is IntAttr
	Value any   // the value when Kind is AnyAttr
}

// AttrKind says which field of an Attr holds its value.
type AttrKind uint8

// Attribute kinds.
const (
	AnyAttr AttrKind = iota // Value holds the value
	IntAttr                 // Num holds the value
)

// Str returns a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int returns an integer attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, Kind: IntAttr, Num: value} }

// Val returns the attribute's value, an int64 for an integer attribute.
func (a Attr) Val() any {
	if a.Kind == IntAttr {
		return a.Num
	}
	return a.Value
}

// String formats the attribute as {key value}.
func (a Attr) String() string { return fmt.Sprintf("{%s %v}", a.Key, a.Val()) }

// Span is one named interval on a node's timeline. A span is created
// open by Recorder.Begin and closed by End; an open span has Stop equal
// to its Start and Open true.
//
// Spans carry two kinds of causal edge, which together make a recorded
// deployment a queryable DAG:
//
//   - Parent: the enclosing span in the same logical request (a mediated
//     command inside a VMM phase, an AoE round trip inside a mediated
//     command). Zero means root.
//   - FlowFrom: a cross-node handoff — the span on another timeline whose
//     completion caused this one (an AoE request span on the client links
//     to the serve span on the vblade server). Zero means none.
type Span struct {
	r *Recorder

	ID       int64 // unique within the recorder, 1-based, in begin order
	Parent   int64 // ID of the causal parent span, or 0
	FlowFrom int64 // ID of the cross-node origin span, or 0

	Node  string // machine the span belongs to ("node0", "server", ...)
	Cat   string // taxonomy bucket: "phase", "mediator", "aoe", "vmm", ...
	Name  string
	Start sim.Time
	Stop  sim.Time
	Open  bool
	Args  []Attr
}

// LinkFlowFrom records a cross-node causal edge: src's completion fed
// this span. Nil spans on either side are accepted and ignored.
func (s *Span) LinkFlowFrom(src *Span) {
	if s == nil || src == nil {
		return
	}
	s.FlowFrom = src.ID
}

// SpanID returns the span's recorder-unique ID, or 0 for a nil span.
func (s *Span) SpanID() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// End closes the span at the current simulation time, appending any
// extra attributes. Ending a nil or already-closed span is a no-op.
func (s *Span) End(attrs ...Attr) {
	if s == nil || !s.Open {
		return
	}
	s.Stop = s.r.clock.Now()
	s.Open = false
	s.Args = append(s.Args, attrs...)
}

// Duration reports the span length; for an open span, the time elapsed
// since Start as of the recorder's clock. A nil span has zero duration.
func (s *Span) Duration() sim.Duration {
	if s == nil {
		return 0
	}
	if s.Open {
		return s.r.clock.Now().Sub(s.Start)
	}
	return s.Stop.Sub(s.Start)
}

// Contains reports whether instant t falls within the span (inclusive
// start, exclusive stop; an open span contains everything after Start).
func (s *Span) Contains(t sim.Time) bool {
	if s == nil {
		return false
	}
	return t >= s.Start && (s.Open || t < s.Stop)
}

// Event is one instantaneous typed event.
type Event struct {
	Time sim.Time
	Node string
	Cat  string
	Name string
	Args []Attr
}

// Recorder accumulates spans and events. The zero value is not usable;
// construct with NewRecorder. A nil *Recorder discards everything.
type Recorder struct {
	clock  Clock
	spans  []*Span // in begin order
	events []Event // in time order (appended at clock time)
	nextID int64   // last span ID handed out
}

// NewRecorder returns a recorder timed by clock.
func NewRecorder(clock Clock) *Recorder {
	return &Recorder{clock: clock}
}

// Enabled reports whether the recorder records (i.e. is non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Begin opens a span on node's timeline and returns it. On a nil
// recorder it returns nil, which every Span method accepts. The span
// keeps a copy of attrs, so a caller's argument list never escapes and
// building attributes costs nothing when no recorder is installed.
func (r *Recorder) Begin(node, cat, name string, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	r.nextID++
	s := &Span{r: r, ID: r.nextID, Node: node, Cat: cat, Name: name, Start: r.clock.Now(), Open: true,
		Args: append([]Attr(nil), attrs...)}
	s.Stop = s.Start
	r.spans = append(r.spans, s)
	return s
}

// BeginChild opens a span whose causal parent is parent (which may be
// nil, yielding a root span). On a nil recorder it returns nil.
func (r *Recorder) BeginChild(parent *Span, node, cat, name string, attrs ...Attr) *Span {
	s := r.Begin(node, cat, name, attrs...)
	if s != nil && parent != nil {
		s.Parent = parent.ID
	}
	return s
}

// Emit records an instantaneous event at the current simulation time.
// Like Begin, it keeps a copy of attrs.
func (r *Recorder) Emit(node, cat, name string, attrs ...Attr) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{Time: r.clock.Now(), Node: node, Cat: cat, Name: name,
		Args: append([]Attr(nil), attrs...)})
}

// Now reports the recorder's clock, or 0 on a nil recorder.
func (r *Recorder) Now() sim.Time {
	if r == nil {
		return 0
	}
	return r.clock.Now()
}

// --- queryable view ------------------------------------------------------

// Spans returns all recorded spans in begin order (open spans included).
func (r *Recorder) Spans() []*Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Events returns all recorded events in time order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// SpansNamed returns every span with the given name, in begin order.
func (r *Recorder) SpansNamed(name string) []*Span {
	return r.filterSpans(func(s *Span) bool { return s.Name == name })
}

// SpansInCat returns every span in the given category, in begin order.
func (r *Recorder) SpansInCat(cat string) []*Span {
	return r.filterSpans(func(s *Span) bool { return s.Cat == cat })
}

// SpansOnNode returns every span on the given node, in begin order.
func (r *Recorder) SpansOnNode(node string) []*Span {
	return r.filterSpans(func(s *Span) bool { return s.Node == node })
}

// FirstSpan returns the earliest-begun span with the given name, or nil.
func (r *Recorder) FirstSpan(name string) *Span {
	if r == nil {
		return nil
	}
	for _, s := range r.spans {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func (r *Recorder) filterSpans(keep func(*Span) bool) []*Span {
	if r == nil {
		return nil
	}
	var out []*Span
	for _, s := range r.spans {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// EventsInCat returns every event in the given category, in time order.
func (r *Recorder) EventsInCat(cat string) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, e := range r.events {
		if e.Cat == cat {
			out = append(out, e)
		}
	}
	return out
}

// OpenSpans reports how many spans are still open.
func (r *Recorder) OpenSpans() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, s := range r.spans {
		if s.Open {
			n++
		}
	}
	return n
}

// OpenSpanList returns the spans still open, in begin order.
func (r *Recorder) OpenSpanList() []*Span {
	return r.filterSpans(func(s *Span) bool { return s.Open })
}

// SpanByID returns the span with the given ID, or nil. IDs are dense and
// 1-based in begin order, so this is an index lookup.
func (r *Recorder) SpanByID(id int64) *Span {
	if r == nil || id <= 0 || id > int64(len(r.spans)) {
		return nil
	}
	if s := r.spans[id-1]; s.ID == id {
		return s
	}
	// Imported traces may be sparse; fall back to a scan.
	for _, s := range r.spans {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// Durations builds a duration histogram over every completed span with
// the given name — the per-span-kind latency view.
func (r *Recorder) Durations(name string) *metrics.Histogram {
	h := &metrics.Histogram{}
	if r == nil {
		return h
	}
	for _, s := range r.spans {
		if s.Name == name && !s.Open {
			h.Observe(s.Duration())
		}
	}
	return h
}

// --- trace import ---------------------------------------------------------

// FixedClock is a Clock pinned at one instant, for recorders rebuilt
// from exported traces (where "now" is the trace's end time).
type FixedClock sim.Time

// Now returns the pinned instant.
func (c FixedClock) Now() sim.Time { return sim.Time(c) }

// ImportSpan appends a span reconstructed from an exported trace,
// preserving its recorded ID and causal edges. The recorder's ID counter
// advances past imported IDs so live and imported spans never collide.
func (r *Recorder) ImportSpan(s Span) *Span {
	if r == nil {
		return nil
	}
	sp := s
	sp.r = r
	r.spans = append(r.spans, &sp)
	if sp.ID > r.nextID {
		r.nextID = sp.ID
	}
	return &sp
}

// ImportEvent appends an event reconstructed from an exported trace.
func (r *Recorder) ImportEvent(e Event) {
	if r == nil {
		return
	}
	r.events = append(r.events, e)
}

// --- kernel process events ----------------------------------------------

// KernelEvents hooks kernel k's process lifecycle (spawn, park, wake,
// exit) into the recorder as instant events in category "sim" on the
// given node timeline. Passing a nil recorder removes the hook. The
// hook is optional and off by default: process events are high-volume
// and most traces only need the span layers above.
func KernelEvents(r *Recorder, k *sim.Kernel, node string) {
	if r == nil {
		k.SetProcHook(nil)
		return
	}
	k.SetProcHook(func(_ sim.Time, ev sim.ProcEvent, name string) {
		r.Emit(node, "sim", ev.String(), Str("proc", name))
	})
}
