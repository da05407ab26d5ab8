// Package faults provides sim-time-scheduled, seed-deterministic fault
// injection for the BMcast testbed. A Schedule is an ordered list of
// scripted events — link flaps, asymmetric partitions, frame corruption/
// duplication/reordering, vblade server crashes and restarts, disk
// media-error windows — applied at exact sim-times by an Injector, so the
// same kernel seed plus the same schedule replays byte-identically. All
// probabilistic impairments draw from the kernel's seeded source; the
// package itself introduces no randomness and never reads the wall clock.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/ethernet"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vblade"
)

// Kind names one fault verb.
type Kind string

// The fault verbs of the schedule grammar.
const (
	LinkDown  Kind = "linkdown"  // linkdown <link> [dir]
	LinkUp    Kind = "linkup"    // linkup <link> [dir]
	Partition Kind = "partition" // partition <link> <dir>  (one-way down)
	Loss      Kind = "loss"      // loss <link> <rate> [dir]
	Corrupt   Kind = "corrupt"   // corrupt <link> <rate> [dir]
	Duplicate Kind = "dup"       // dup <link> <rate> [dir]
	Reorder   Kind = "reorder"   // reorder <link> <rate> [dir]
	Crash     Kind = "crash"     // crash <server>
	Restart   Kind = "restart"   // restart <server>
	MediaErr  Kind = "mediaerr"  // mediaerr <server> <lba> <count> <for>
)

// Event is one scripted fault: Kind applied to Target at offset At from
// the instant the schedule is applied.
type Event struct {
	At     sim.Duration
	Kind   Kind
	Target string

	Dir   ethernet.Dir // link events: which direction(s)
	Rate  float64      // loss/corrupt/dup/reorder
	LBA   int64        // mediaerr: first faulty sector
	Count int64        // mediaerr: faulty sector count
	For   sim.Duration // mediaerr: window length
}

// String renders the event in schedule grammar, round-tripping Parse.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s", fmtDuration(e.At), e.Kind, e.Target)
	switch e.Kind {
	case LinkDown, LinkUp:
		if e.Dir != ethernet.DirBoth {
			fmt.Fprintf(&b, " %s", e.Dir)
		}
	case Partition:
		fmt.Fprintf(&b, " %s", e.Dir)
	case Loss, Corrupt, Duplicate, Reorder:
		fmt.Fprintf(&b, " %g", e.Rate)
		if e.Dir != ethernet.DirBoth {
			fmt.Fprintf(&b, " %s", e.Dir)
		}
	case MediaErr:
		fmt.Fprintf(&b, " %d %d %s", e.LBA, e.Count, fmtDuration(e.For))
	}
	return b.String()
}

// fmtDuration renders a duration in the grammar's unit syntax (time.Duration
// notation, which time.ParseDuration round-trips).
func fmtDuration(d sim.Duration) string { return time.Duration(d).String() }

// Schedule is an ordered fault script.
type Schedule struct {
	Events []Event
}

// String renders the schedule in grammar form: events joined by "; ".
func (s Schedule) String() string {
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// Parse reads a schedule from its grammar form: semicolon-separated events,
// each "<time> <verb> <target> [args]". Times are time.Duration literals
// ("500ms", "1.5s"); link directions are "tx" (station→switch), "rx", or
// "both" (the default). Events are sorted by time, original order breaking
// ties, so a schedule string applies identically however it is written.
func Parse(input string) (Schedule, error) {
	var s Schedule
	for _, stmt := range strings.Split(input, ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		ev, err := parseEvent(stmt)
		if err != nil {
			return Schedule{}, err
		}
		s.Events = append(s.Events, ev)
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s, nil
}

func parseEvent(stmt string) (Event, error) {
	fields := strings.Fields(stmt)
	if len(fields) < 3 {
		return Event{}, fmt.Errorf("faults: %q: want \"<time> <verb> <target> [args]\"", stmt)
	}
	at, err := parseDuration(fields[0])
	if err != nil {
		return Event{}, fmt.Errorf("faults: %q: bad time: %v", stmt, err)
	}
	ev := Event{At: at, Kind: Kind(fields[1]), Target: fields[2]}
	args := fields[3:]
	switch ev.Kind {
	case LinkDown, LinkUp:
		if len(args) > 1 {
			return Event{}, fmt.Errorf("faults: %q: want at most one direction", stmt)
		}
		if len(args) == 1 {
			if ev.Dir, err = parseDir(args[0]); err != nil {
				return Event{}, fmt.Errorf("faults: %q: %v", stmt, err)
			}
		}
	case Partition:
		if len(args) != 1 {
			return Event{}, fmt.Errorf("faults: %q: partition wants a direction (tx|rx)", stmt)
		}
		if ev.Dir, err = parseDir(args[0]); err != nil {
			return Event{}, fmt.Errorf("faults: %q: %v", stmt, err)
		}
		if ev.Dir == ethernet.DirBoth {
			return Event{}, fmt.Errorf("faults: %q: a partition is one-way; use linkdown for both", stmt)
		}
	case Loss, Corrupt, Duplicate, Reorder:
		if len(args) < 1 || len(args) > 2 {
			return Event{}, fmt.Errorf("faults: %q: want \"<rate> [dir]\"", stmt)
		}
		if ev.Rate, err = strconv.ParseFloat(args[0], 64); err != nil {
			return Event{}, fmt.Errorf("faults: %q: bad rate: %v", stmt, err)
		}
		if !(ev.Rate >= 0 && ev.Rate <= 1) { // NaN fails both
			return Event{}, fmt.Errorf("faults: %q: rate %g outside [0,1]", stmt, ev.Rate)
		}
		if len(args) == 2 {
			if ev.Dir, err = parseDir(args[1]); err != nil {
				return Event{}, fmt.Errorf("faults: %q: %v", stmt, err)
			}
		}
	case Crash, Restart:
		if len(args) != 0 {
			return Event{}, fmt.Errorf("faults: %q: %s takes no arguments", stmt, ev.Kind)
		}
	case MediaErr:
		if len(args) != 3 {
			return Event{}, fmt.Errorf("faults: %q: want \"<lba> <count> <for>\"", stmt)
		}
		if ev.LBA, err = strconv.ParseInt(args[0], 10, 64); err != nil {
			return Event{}, fmt.Errorf("faults: %q: bad lba: %v", stmt, err)
		}
		if ev.Count, err = strconv.ParseInt(args[1], 10, 64); err != nil {
			return Event{}, fmt.Errorf("faults: %q: bad count: %v", stmt, err)
		}
		if ev.Count <= 0 {
			return Event{}, fmt.Errorf("faults: %q: non-positive count", stmt)
		}
		if ev.For, err = parseDuration(args[2]); err != nil {
			return Event{}, fmt.Errorf("faults: %q: bad window: %v", stmt, err)
		}
	default:
		return Event{}, fmt.Errorf("faults: %q: unknown verb %q", stmt, fields[1])
	}
	return ev, nil
}

func parseDuration(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %s", s)
	}
	return sim.Duration(d), nil
}

func parseDir(s string) (ethernet.Dir, error) {
	switch s {
	case "tx":
		return ethernet.DirA2B, nil
	case "rx":
		return ethernet.DirB2A, nil
	case "both":
		return ethernet.DirBoth, nil
	}
	return 0, fmt.Errorf("unknown direction %q (want tx|rx|both)", s)
}

// Injector applies schedules to registered links and servers on a kernel's
// clock. Register targets under canonical names, then Apply one or more
// schedules before (or while) the simulation runs.
type Injector struct {
	k       *sim.Kernel
	links   map[string]*ethernet.Link
	servers map[string]*vblade.Server

	// kernels maps targets living on another shard domain (DESIGN.md §13)
	// to their owning kernel: the state mutation is scheduled there, while
	// bookkeeping (counter, trace event, observer) stays on k. Empty on a
	// single-threaded testbed.
	kernels map[string]*sim.Kernel
	// observer, when set, sees every fired event on k's clock — the
	// sharded testbed mirrors link carrier state for control-plane probes
	// through it.
	observer func(ev Event)

	// Injected counts fault events fired (metric "faults.injected").
	Injected metrics.Counter

	tr *trace.Recorder
}

// NewInjector returns an empty injector on kernel k.
func NewInjector(k *sim.Kernel) *Injector {
	return &Injector{
		k:       k,
		links:   make(map[string]*ethernet.Link),
		servers: make(map[string]*vblade.Server),
		kernels: make(map[string]*sim.Kernel),
	}
}

// SetObserver installs a hub-side observer called for every fired event
// (after its bookkeeping) on the injector kernel's clock.
func (inj *Injector) SetObserver(fn func(ev Event)) { inj.observer = fn }

// Instrument registers the injected-events counter in reg and makes every
// fired event record a trace event on tr (nil-safe on both).
func (inj *Injector) Instrument(reg *metrics.Registry, tr *trace.Recorder) {
	inj.tr = tr
	reg.RegisterCounter("faults.injected", &inj.Injected)
}

// RegisterLink makes a link addressable by name in schedules.
func (inj *Injector) RegisterLink(name string, l *ethernet.Link) {
	inj.links[name] = l
}

// RegisterLinkOn registers a link owned by shard domain k: its state
// mutations will be scheduled on k instead of the injector kernel.
func (inj *Injector) RegisterLinkOn(name string, l *ethernet.Link, k *sim.Kernel) {
	inj.links[name] = l
	if k != nil && k != inj.k {
		inj.kernels[name] = k
	}
}

// RegisterServer makes a vblade server addressable by name in schedules.
func (inj *Injector) RegisterServer(name string, s *vblade.Server) {
	inj.servers[name] = s
}

// Apply validates the schedule against the registered targets and arms
// every event on the kernel clock, offset from the current instant. It
// rejects the whole schedule on the first unknown target or verb, arming
// nothing.
func (inj *Injector) Apply(s Schedule) error {
	for _, ev := range s.Events {
		if err := inj.check(ev); err != nil {
			return err
		}
	}
	for _, ev := range s.Events {
		ev := ev
		tk := inj.kernels[ev.Target]
		if tk == nil {
			inj.k.After(ev.At, func() { inj.fire(ev) })
			continue
		}
		// Sharded target: the mutation runs on the owning domain and the
		// bookkeeping on the injector (hub) domain, both at the scheduled
		// instant. Apply must happen before the shard set runs — both
		// kernels still sit at time zero, so scheduling on the foreign
		// kernel is not yet a cross-domain operation.
		if tk.Now() != 0 || inj.k.Now() != 0 {
			return fmt.Errorf("faults: sharded schedules must be applied before the run")
		}
		inj.k.After(ev.At, func() { inj.book(ev) })
		tk.After(ev.At, func() { inj.mutate(ev) })
	}
	return nil
}

// check validates one event's target against the registry.
func (inj *Injector) check(ev Event) error {
	switch ev.Kind {
	case LinkDown, LinkUp, Partition, Loss, Corrupt, Duplicate, Reorder:
		if inj.links[ev.Target] == nil {
			return fmt.Errorf("faults: unknown link %q (registered: %s)", ev.Target, inj.names(true))
		}
	case Crash, Restart, MediaErr:
		if inj.servers[ev.Target] == nil {
			return fmt.Errorf("faults: unknown server %q (registered: %s)", ev.Target, inj.names(false))
		}
		if ev.Kind == MediaErr && inj.servers[ev.Target].Target(0, 0) == nil {
			return fmt.Errorf("faults: server %q exports no target 0.0", ev.Target)
		}
	default:
		return fmt.Errorf("faults: unknown verb %q", ev.Kind)
	}
	return nil
}

// names lists registered link or server names, sorted, for error messages.
func (inj *Injector) names(links bool) string {
	var out []string
	if links {
		for n := range inj.links {
			out = append(out, n)
		}
	} else {
		for n := range inj.servers {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	if len(out) == 0 {
		return "none"
	}
	return strings.Join(out, ", ")
}

// fire applies one event at its scheduled instant.
func (inj *Injector) fire(ev Event) {
	inj.mutate(ev)
	inj.book(ev)
}

// book records one fired event: the injected counter, the trace event,
// and the observer. On a sharded testbed this runs on the hub domain.
func (inj *Injector) book(ev Event) {
	inj.Injected.Inc()
	inj.tr.Emit("faults", "faults", string(ev.Kind),
		trace.Str("target", ev.Target), trace.Str("event", ev.String()))
	if inj.observer != nil {
		inj.observer(ev)
	}
}

// mutate applies one event's state change on the target's owning kernel.
func (inj *Injector) mutate(ev Event) {
	switch ev.Kind {
	case LinkDown:
		inj.links[ev.Target].SetDown(ev.Dir, true)
	case LinkUp:
		inj.links[ev.Target].SetDown(ev.Dir, false)
	case Partition:
		inj.links[ev.Target].SetDown(ev.Dir, true)
	case Loss:
		// Schedule-driven loss overrides the link's configured rate in
		// both selected directions (SetLossRate has no Dir form; loss is
		// symmetric in LinkParams).
		inj.links[ev.Target].SetLossRate(ev.Rate)
	case Corrupt:
		inj.links[ev.Target].SetCorruptRate(ev.Dir, ev.Rate)
	case Duplicate:
		inj.links[ev.Target].SetDuplicateRate(ev.Dir, ev.Rate)
	case Reorder:
		inj.links[ev.Target].SetReorderRate(ev.Dir, ev.Rate)
	case Crash:
		inj.servers[ev.Target].Crash()
	case Restart:
		inj.servers[ev.Target].Restart()
	case MediaErr:
		// Server targets always live on the injector kernel (the sharded
		// testbed keeps storage servers in the hub domain), so its clock is
		// the firing instant.
		until := inj.k.Now().Add(ev.For)
		inj.servers[ev.Target].Target(0, 0).AddMediaError(ev.LBA, ev.Count, until)
	}
}
