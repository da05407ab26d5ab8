package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Busy-time attribution. A traced child writes a runtime/pprof CPU
// profile; every sample is charged to exactly one of cpuLayers:
//
//   - runtime.gc when any frame is garbage-collector work (background mark
//     workers, mark assists, sweeping, scavenging);
//   - runtime.sched when the frames below the innermost repository frame
//     are the scheduler or a channel handoff (the sim kernel's process
//     switches land here);
//   - otherwise the layer of the innermost repro/internal frame, so
//     runtime helpers such as memmove or mallocgc count for the layer that
//     called them; the device models under internal/hw other than the
//     disk share one layer, hw;
//   - other for everything left, including the harness itself.
var cpuLayers = []string{
	"sim", "ethernet", "aoe", "vblade", "mediator", "core", "disk",
	"hw", "cloud", "guest", "cpuvirt", "runtime.gc", "runtime.sched", "other",
}

const internalPrefix = "repro/internal/"

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.gcStart",
}

var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.park_m",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.chansend",
	"runtime.chanrecv", "runtime.selectgo", "runtime.Gosched", "runtime.gosched_m",
	"runtime.goschedImpl", "runtime.stopm", "runtime.startm", "runtime.wakep",
	"runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.execute",
	"runtime.osyield", "runtime.usleep",
}

// classify charges one sample's stack (leaf first) to a layer.
func classify(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime.gc"
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, internalPrefix) {
			return layerOf(fn)
		}
		for _, s := range schedFrames {
			if fn == s || strings.HasPrefix(fn, s+".") {
				return "runtime.sched"
			}
		}
	}
	return "other"
}

// layerOf maps a fully qualified function name under repro/internal to
// its layer: the last element of the package path ("hw/disk" is "disk"),
// or hw for the other device models.
func layerOf(fn string) string {
	pkg := strings.TrimPrefix(fn, internalPrefix)
	// Receiver and type-argument lists may name other packages.
	if i := strings.IndexAny(pkg, "(["); i >= 0 {
		pkg = pkg[:i]
	}
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if pkg[:i] == "hw" && !strings.HasPrefix(pkg[i+1:], "disk.") {
			return "hw"
		}
		pkg = pkg[i+1:]
	}
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range cpuLayers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// layerSamples adds the CPU time of every sample in the profile file to
// the per-layer totals (nanoseconds).
func layerSamples(path string, totals map[string]float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				stack = append(stack, p.str(p.funcName[fid]))
			}
		}
		totals[classify(stack)] += float64(s.value)
	}
	return nil
}

// profile is the part of a pprof profile.proto message the attribution
// needs. Location lines are innermost first, as pprof stores inlined
// frames.
type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location id → function ids
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes the fields of profile.proto used here: sample (2),
// location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := pbFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []uint64
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = pbRepeated(s.locs, v, data)
				case 2:
					vals, err = pbRepeated(vals, v, data)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return pbFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLines[id] = fns
		case 5:
			var id uint64
			var name int64
			err := pbFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errProto = errors.New("malformed profile protobuf")

// pbFields walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as data. Fixed-width fields
// are skipped.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var data []byte
		switch typ {
		case 0:
			if v, n = pbVarint(b); n == 0 {
				return errProto
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if typ == 5 {
				w = 4
			}
			if len(b) < w {
				return errProto
			}
			b = b[w:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends one repeated varint field, packed (data) or not (v).
func pbRepeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// pbVarint decodes one base-128 varint, returning its length (0 when b
// is truncated or the varint overflows).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
