package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// chromeEvent mirrors the exporter's entry shape; unknown fields are
// ignored so traces annotated by other tools still load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// LoadChromeTrace rebuilds a trace recorder from Chrome trace-event JSON
// previously written by trace.WriteChromeTrace. Span IDs and causal
// edges round-trip through the span args (span_id / parent / flow_from);
// the paired "s"/"f" flow events are redundant with those and skipped.
// The recorder's clock is pinned at the latest instant in the trace.
func LoadChromeTrace(r io.Reader) (*trace.Recorder, error) {
	var ct chromeTrace
	if err := json.NewDecoder(r).Decode(&ct); err != nil {
		return nil, fmt.Errorf("obs: parse chrome trace: %w", err)
	}

	// Pass 1: metadata. process_name maps pid → node.
	nodeOf := map[int]string{}
	for _, e := range ct.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			if name, ok := e.Args["name"].(string); ok {
				nodeOf[e.Pid] = name
			}
		}
	}

	// Pass 2: find the trace end so the recorder's "now" is pinned there
	// (open spans re-imported as open must report their exported length).
	var end sim.Time
	for _, e := range ct.TraceEvents {
		if e.Ph != "X" && e.Ph != "i" {
			continue
		}
		if !inClockRange(e.TS) || e.Dur != nil && !inClockRange(*e.Dur) {
			return nil, fmt.Errorf("obs: event %q at ts=%v: time out of the simulation clock's range", e.Name, e.TS)
		}
		t := toSimTime(e.TS)
		if e.Dur != nil {
			t = t.Add(toSimDur(*e.Dur))
		}
		if t > end {
			end = t
		}
	}
	rec := trace.NewRecorder(trace.FixedClock(end))

	// Pass 3: spans and events.
	for _, e := range ct.TraceEvents {
		node, ok := nodeOf[e.Pid]
		if !ok {
			node = fmt.Sprintf("pid%d", e.Pid)
		}
		switch e.Ph {
		case "X":
			s := trace.Span{
				Node:  node,
				Cat:   e.Cat,
				Name:  e.Name,
				Start: toSimTime(e.TS),
			}
			s.Stop = s.Start
			if e.Dur != nil {
				s.Stop = s.Start.Add(toSimDur(*e.Dur))
			}
			var okID, okParent, okFlow bool
			s.ID, okID = argID(e.Args, "span_id")
			s.Parent, okParent = argID(e.Args, "parent")
			s.FlowFrom, okFlow = argID(e.Args, "flow_from")
			if !okID || !okParent || !okFlow {
				return nil, fmt.Errorf("obs: span %q at ts=%v has a span_id, parent or flow_from arg that is not an integer", e.Name, e.TS)
			}
			if u, _ := e.Args["unfinished"].(bool); u {
				s.Open = true
			}
			s.Args = restAttrs(e.Args)
			if s.ID == 0 {
				return nil, fmt.Errorf("obs: span %q at ts=%v has no span_id arg (trace not written by this tool?)", e.Name, e.TS)
			}
			rec.ImportSpan(s)
		case "i":
			rec.ImportEvent(trace.Event{
				Time: toSimTime(e.TS),
				Node: node,
				Cat:  e.Cat,
				Name: e.Name,
				Args: restAttrs(e.Args),
			})
		}
		// "M" handled above; "s"/"f" flow events are redundant.
	}
	return rec, nil
}

// maxMicros bounds a loaded timestamp or duration, in trace microseconds,
// so that each converts to a sim.Time and any two of them add up without
// overflow.
const maxMicros = float64(1<<61) / float64(sim.Microsecond)

func inClockRange(us float64) bool { return math.Abs(us) < maxMicros }

// toSimTime converts trace microseconds back to simulation nanoseconds.
// Exported values are exact multiples of 1/1000 µs, so rounding recovers
// the original integer nanosecond.
func toSimTime(ts float64) sim.Time { return sim.Time(math.Round(ts * float64(sim.Microsecond))) }

func toSimDur(d float64) sim.Duration { return sim.Duration(math.Round(d * float64(sim.Microsecond))) }

// exactInt64 reports f as an int64 when it is an integer in int64's range.
func exactInt64(f float64) (int64, bool) {
	if f != math.Trunc(f) || f < -(1<<63) || f >= 1<<63 {
		return 0, false
	}
	return int64(f), true
}

// argID fetches an ID arg (JSON numbers decode as float64). An absent arg
// is ID 0; ok is false when the arg is present but not an integer.
func argID(args map[string]any, key string) (int64, bool) {
	v, present := args[key]
	if !present {
		return 0, true
	}
	f, isNum := v.(float64)
	if !isNum {
		return 0, false
	}
	return exactInt64(f)
}

// restAttrs converts the args object back to attributes, dropping the
// exporter's bookkeeping keys and restoring integral floats to integer
// attributes so a loaded trace analyzes identically to a live one. Keys
// are sorted for deterministic attribute order.
func restAttrs(args map[string]any) []trace.Attr {
	if len(args) == 0 {
		return nil
	}
	keys := make([]string, 0, len(args))
	for k := range args {
		switch k {
		case "span_id", "parent", "flow_from", "unfinished":
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return nil
	}
	out := make([]trace.Attr, 0, len(keys))
	for _, k := range keys {
		v := args[k]
		if f, ok := v.(float64); ok {
			if i, exact := exactInt64(f); exact {
				out = append(out, trace.Int(k, i))
				continue
			}
		}
		out = append(out, trace.Attr{Key: k, Value: v})
	}
	return out
}
