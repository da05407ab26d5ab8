package trace

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/sim"
)

// Chrome trace-event export (the JSON format consumed by Perfetto and
// chrome://tracing). Simulation time is the trace clock: "ts" is
// sim-time expressed in microseconds (the format's native unit), so one
// trace second is one simulated second. Each node becomes a process;
// each span category on a node becomes a thread, so phases, mediated
// commands, AoE round trips, and the background copy stack as separate
// timeline rows per machine.

// chromeEvent is one entry of the "traceEvents" array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object format (preferred over the bare array
// because it survives truncation detection and carries metadata).
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// micros converts a simulation instant to trace microseconds.
func micros(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// microsDur converts a duration to trace microseconds.
func microsDur(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Val()
	}
	return m
}

// laneTable assigns stable pid/tid numbers: processes per node in
// first-seen order, threads per (node, category) in first-seen order.
type laneTable struct {
	pids     map[string]int
	pidOrder []string
	tids     map[[2]string]int
	tidOrder [][2]string
}

func newLaneTable() *laneTable {
	return &laneTable{pids: make(map[string]int), tids: make(map[[2]string]int)}
}

func (lt *laneTable) pid(node string) int {
	if id, ok := lt.pids[node]; ok {
		return id
	}
	id := len(lt.pids) + 1
	lt.pids[node] = id
	lt.pidOrder = append(lt.pidOrder, node)
	return id
}

func (lt *laneTable) tid(node, cat string) int {
	key := [2]string{node, cat}
	if id, ok := lt.tids[key]; ok {
		return id
	}
	id := len(lt.tids) + 1
	lt.tids[key] = id
	lt.tidOrder = append(lt.tidOrder, key)
	return id
}

// WriteChromeTrace writes the recorder's contents as Chrome trace-event
// JSON. Spans export as complete ("X") events; spans still open export
// with their duration as of the recorder's clock and an
// "unfinished":true argument (the BareMetal phase is the usual case).
// Instant events export as thread-scoped "i" events. Causal edges export
// twice: as span args (span_id / parent / flow_from, which round-trip
// through an import) and as paired "s"/"f" flow events so Perfetto draws
// arrows across timelines. A nil recorder writes a valid empty trace.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	if r != nil {
		lt := newLaneTable()
		byID := make(map[int64]*Span, len(r.spans))
		for _, s := range r.spans {
			byID[s.ID] = s
		}
		for _, s := range r.spans {
			args := attrMap(s.Args)
			dur := microsDur(s.Duration())
			if args == nil {
				args = map[string]any{}
			}
			if s.Open {
				args["unfinished"] = true
			}
			args["span_id"] = s.ID
			if s.Parent != 0 {
				args["parent"] = s.Parent
			}
			if s.FlowFrom != 0 {
				args["flow_from"] = s.FlowFrom
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X",
				TS: micros(s.Start), Dur: &dur,
				Pid: lt.pid(s.Node), Tid: lt.tid(s.Node, s.Cat),
				Args: args,
			})
			if src, ok := byID[s.FlowFrom]; ok && s.FlowFrom != 0 {
				// The flow arrow leaves the source slice and lands at this
				// span's start. Both endpoints carry the destination span's
				// ID; the start timestamp is clamped into the source slice
				// so the viewer can bind it.
				sts := micros(s.Start)
				if !src.Open && s.Start > src.Stop {
					sts = micros(src.Stop)
				}
				if s.Start < src.Start {
					sts = micros(src.Start)
				}
				out.TraceEvents = append(out.TraceEvents,
					chromeEvent{
						Name: "flow", Cat: "flow", Ph: "s", TS: sts, ID: s.ID,
						Pid: lt.pid(src.Node), Tid: lt.tid(src.Node, src.Cat),
					},
					chromeEvent{
						Name: "flow", Cat: "flow", Ph: "f", BP: "e", TS: micros(s.Start), ID: s.ID,
						Pid: lt.pid(s.Node), Tid: lt.tid(s.Node, s.Cat),
					})
			}
		}
		for _, e := range r.events {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Name, Cat: e.Cat, Ph: "i", S: "t",
				TS:  micros(e.Time),
				Pid: lt.pid(e.Node), Tid: lt.tid(e.Node, e.Cat),
				Args: attrMap(e.Args),
			})
		}
		out.TraceEvents = append(out.TraceEvents, lt.metadata()...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// metadata emits process_name / thread_name entries so the viewer shows
// node and category names instead of bare ids.
func (lt *laneTable) metadata() []chromeEvent {
	var out []chromeEvent
	nodes := append([]string(nil), lt.pidOrder...)
	sort.Strings(nodes)
	for _, node := range nodes {
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: lt.pids[node],
			Args: map[string]any{"name": node},
		})
	}
	keys := append([][2]string(nil), lt.tidOrder...)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M",
			Pid: lt.pids[key[0]], Tid: lt.tids[key],
			Args: map[string]any{"name": key[1]},
		})
	}
	return out
}
