package faults

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// StormConfig describes a fault storm — the compound failure pattern the
// elastic control plane is hardened against: a rack partition (a set of
// links go down for the storm window), vblade crash/restart cycles, and
// disk media-error bursts, all inside one window. Schedule() lowers the
// storm to ordinary schedule events, so a storm replays with the same
// byte-identical determinism as any hand-written schedule.
type StormConfig struct {
	// At is the storm's start offset; For is the window length. Links go
	// down at At and come back at At+For.
	At  sim.Duration
	For sim.Duration

	// Links are partitioned (both directions) for the whole window.
	Links []string

	// Server is the vblade server hit by crash and media-error bursts
	// (ignored when Crashes and MediaErrs are both zero).
	Server string

	// Crashes is the number of crash/restart cycles spread evenly across
	// the window; each restart comes half a slot after its crash.
	Crashes int

	// MediaErrs is the number of media-error windows spread evenly
	// across the storm, each covering MediaErrCount sectors at
	// MediaErrLBA for half a slot.
	MediaErrs     int
	MediaErrLBA   int64
	MediaErrCount int64
}

// Schedule lowers the storm to a plain fault schedule, events sorted by
// time with the same stable tie-breaking Parse uses.
func (sc StormConfig) Schedule() Schedule {
	var s Schedule
	for _, l := range sc.Links {
		s.Events = append(s.Events, Event{At: sc.At, Kind: LinkDown, Target: l})
		s.Events = append(s.Events, Event{At: sc.At + sc.For, Kind: LinkUp, Target: l})
	}
	if sc.Server != "" && sc.Crashes > 0 {
		slot := sc.For / sim.Duration(sc.Crashes)
		for i := 0; i < sc.Crashes; i++ {
			at := sc.At + sim.Duration(i)*slot
			s.Events = append(s.Events, Event{At: at, Kind: Crash, Target: sc.Server})
			s.Events = append(s.Events, Event{At: at + slot/2, Kind: Restart, Target: sc.Server})
		}
	}
	if sc.Server != "" && sc.MediaErrs > 0 && sc.MediaErrCount > 0 {
		slot := sc.For / sim.Duration(sc.MediaErrs)
		for i := 0; i < sc.MediaErrs; i++ {
			s.Events = append(s.Events, Event{
				At: sc.At + sim.Duration(i)*slot, Kind: MediaErr, Target: sc.Server,
				LBA: sc.MediaErrLBA, Count: sc.MediaErrCount, For: slot / 2,
			})
		}
	}
	sortEvents(&s)
	return s
}

// sortEvents orders events by time, original order breaking ties — the
// same convention Parse uses, so a lowered storm and its re-parsed string
// agree event for event.
func sortEvents(s *Schedule) {
	evs := s.Events
	for i := 1; i < len(evs); i++ { // insertion sort: stable, no deps
		for j := i; j > 0 && evs[j].At < evs[j-1].At; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// String renders the storm in its flag grammar ("at=60s,for=30s,..."),
// round-tripping ParseStorm.
func (sc StormConfig) String() string {
	var parts []string
	parts = append(parts, "at="+fmtDuration(sc.At), "for="+fmtDuration(sc.For))
	if len(sc.Links) > 0 {
		parts = append(parts, "links="+strings.Join(sc.Links, "+"))
	}
	if sc.Server != "" {
		parts = append(parts, "server="+sc.Server)
	}
	if sc.Crashes > 0 {
		parts = append(parts, "crashes="+strconv.Itoa(sc.Crashes))
	}
	if sc.MediaErrs > 0 {
		parts = append(parts, "mediaerr="+strconv.Itoa(sc.MediaErrs),
			"lba="+strconv.FormatInt(sc.MediaErrLBA, 10),
			"sectors="+strconv.FormatInt(sc.MediaErrCount, 10))
	}
	return strings.Join(parts, ",")
}

// ParseStorm reads a storm from its flag grammar: comma-separated
// key=value pairs — at, for (durations), links (names joined by "+"),
// server, crashes, mediaerr, lba, sectors. Unset mediaerr sector counts
// default to 64.
func ParseStorm(input string) (StormConfig, error) {
	var sc StormConfig
	for _, kv := range strings.Split(input, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return StormConfig{}, fmt.Errorf("faults: storm %q: want key=value", kv)
		}
		var err error
		switch k {
		case "at":
			sc.At, err = parseDuration(v)
		case "for":
			sc.For, err = parseDuration(v)
		case "links":
			for _, l := range strings.Split(v, "+") {
				if l = strings.TrimSpace(l); l != "" {
					sc.Links = append(sc.Links, l)
				}
			}
		case "server":
			sc.Server = v
		case "crashes":
			sc.Crashes, err = strconv.Atoi(v)
		case "mediaerr":
			sc.MediaErrs, err = strconv.Atoi(v)
		case "lba":
			sc.MediaErrLBA, err = strconv.ParseInt(v, 10, 64)
		case "sectors":
			sc.MediaErrCount, err = strconv.ParseInt(v, 10, 64)
		default:
			return StormConfig{}, fmt.Errorf("faults: storm: unknown key %q", k)
		}
		if err != nil {
			return StormConfig{}, fmt.Errorf("faults: storm %q: %v", kv, err)
		}
	}
	if sc.Crashes < 0 || sc.MediaErrs < 0 {
		return StormConfig{}, fmt.Errorf("faults: storm: negative burst count")
	}
	if (sc.Crashes > 0 || sc.MediaErrs > 0) && sc.Server == "" {
		return StormConfig{}, fmt.Errorf("faults: storm: crashes/mediaerr need server=")
	}
	if sc.MediaErrs == 0 && (sc.MediaErrLBA != 0 || sc.MediaErrCount != 0) {
		return StormConfig{}, fmt.Errorf("faults: storm: lba/sectors need mediaerr=")
	}
	if sc.MediaErrs > 0 && sc.MediaErrCount == 0 {
		sc.MediaErrCount = 64
	}
	return sc, nil
}
