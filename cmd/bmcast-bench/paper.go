package main

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/report"
)

// paperRow is one row of EXPERIMENTS.md that has a single numeric paper
// value, with the way to read the reproduced value from the cell's
// tables. Rows whose paper value is a pair, a range, zero or a word are
// left out: they have no relative error.
type paperRow struct {
	cell  string
	what  string
	paper float64
	get   func(ts []*report.Table) (float64, bool)
}

var paperRows = []paperRow{
	{"fig4", "firmware init (s)", 133, at(0, "Baremetal", "firmware")},
	{"fig4", "bare-metal OS boot (s)", 29, at(0, "Baremetal", "os-boot")},
	{"fig4", "BMcast VMM boot (s)", 5, at(0, "BMcast", "vmm/installer")},
	{"fig4", "BMcast OS boot (s)", 58, at(0, "BMcast", "os-boot")},
	{"fig4", "BMcast total excl. firmware (s)", 63, at(0, "BMcast", "total-excl-fw")},
	{"fig4", "image copy installer (s)", 50, at(0, "Image Copy", "vmm/installer")},
	{"fig4", "image copy transfer (s)", 320, at(0, "Image Copy", "transfer")},
	{"fig4", "image copy restart (s)", 145, at(0, "Image Copy", "restart")},
	{"fig4", "image copy total excl. firmware (s)", 544, at(0, "Image Copy", "total-excl-fw")},
	{"fig4", "BMcast speedup excl. firmware (x)", 8.6, ratio(at(0, "Image Copy", "total-excl-fw"), at(0, "BMcast", "total-excl-fw"), 1)},
	{"fig4", "NFS root boot (s)", 49, at(0, "NFS Root", "os-boot")},
	{"fig4", "data moved during BMcast boot (MB)", 72, note(0, regexp.MustCompile(`transferred (\d+) MB`))},
	{"fig6", "BMcast Allreduce vs bare metal (%)", 22, at(0, "Allreduce", "BMcast vs BM")},
	{"fig6", "KVM Allreduce vs bare metal (%)", 35, at(0, "Allreduce", "KVM vs BM")},
	{"fig6", "KVM Allgather, % of bare metal", 235, ratio(at(0, "Allgather", "KVM µs"), at(0, "Allgather", "Baremetal µs"), 100)},
	{"fig7", "bare-metal kernbench (s)", 16, at(0, "Baremetal", "elapsed s")},
	{"fig7", "Deploy kernbench vs bare metal (%)", 8, at(0, "Deploy", "vs Baremetal")},
	{"fig7", "KVM kernbench vs bare metal (%)", 3, at(0, "KVM", "vs Baremetal")},
	{"fig8", "KVM at 24 threads vs bare metal (%)", 68, at(0, "24", "KVM vs BM")},
	{"fig8", "Deploy at 24 threads vs bare metal (%)", 6, at(0, "24", "Deploy vs BM")},
	{"fig9", "KVM at 16K blocks vs bare metal (%)", 35, at(0, "16K", "KVM vs BM")},
	{"fig9", "Deploy at 16K blocks vs bare metal (%)", 6, at(0, "16K", "Deploy vs BM")},
	{"fig11", "Deploy ioping mean vs bare metal (ms)", 4.3, at(0, "Deploy", "vs BM mean")},
	{"fig13", "KVM/Direct RDMA latency vs bare metal (%)", 23.6, at(0, "KVM/Direct", "vs BM")},
}

// paperError is the mean absolute percentage error of the reproduced
// values against the paper over every row whose cell ran. It also lists
// rows whose value could not be read, which means a table changed shape.
func paperError(tables map[string][]*report.Table) (float64, []string) {
	var sum float64
	var n int
	var missing []string
	for _, row := range paperRows {
		ts, ran := tables[row.cell]
		if !ran {
			continue
		}
		v, ok := row.get(ts)
		if !ok {
			missing = append(missing, fmt.Sprintf("%s: cannot read %q", row.cell, row.what))
			continue
		}
		sum += 100 * math.Abs(v-row.paper) / math.Abs(row.paper)
		n++
	}
	if n == 0 {
		return 0, missing
	}
	return sum / float64(n), missing
}

// at reads the cell of table t in the row whose first column is row and
// the column headed col.
func at(t int, row, col string) func([]*report.Table) (float64, bool) {
	return func(ts []*report.Table) (float64, bool) {
		if t >= len(ts) {
			return 0, false
		}
		c := -1
		for i, name := range ts[t].Columns {
			if name == col {
				c = i
			}
		}
		for _, r := range ts[t].Rows {
			if len(r) > c && c >= 0 && r[0] == row {
				return cellNumber(r[c])
			}
		}
		return 0, false
	}
}

// ratio divides two cell values and scales the quotient.
func ratio(num, den func([]*report.Table) (float64, bool), scale float64) func([]*report.Table) (float64, bool) {
	return func(ts []*report.Table) (float64, bool) {
		a, ok1 := num(ts)
		b, ok2 := den(ts)
		if !ok1 || !ok2 || b == 0 {
			return 0, false
		}
		return scale * a / b, true
	}
}

// note reads the number the first capture group of re finds in a note of
// table t.
func note(t int, re *regexp.Regexp) func([]*report.Table) (float64, bool) {
	return func(ts []*report.Table) (float64, bool) {
		if t >= len(ts) {
			return 0, false
		}
		for _, n := range ts[t].Notes {
			if m := re.FindStringSubmatch(n); m != nil {
				return cellNumber(m[1])
			}
		}
		return 0, false
	}
}

// cellNumber parses a table cell: a simulated duration ("55.358s") in
// seconds, or a number with an optional sign and a unit suffix ("+11.2%",
// "+2.0 ms", "196").
func cellNumber(cell string) (float64, bool) {
	cell = strings.TrimSpace(cell)
	if d, err := time.ParseDuration(cell); err == nil {
		return d.Seconds(), true
	}
	end := 0
	for end < len(cell) && strings.ContainsRune("+-.0123456789", rune(cell[end])) {
		end++
	}
	v, err := strconv.ParseFloat(cell[:end], 64)
	return v, err == nil
}
