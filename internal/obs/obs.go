// Package obs is the causal-trace analysis layer: it turns a recorded
// deployment trace (live *trace.Recorder or a re-imported Chrome trace)
// into a deterministic critical-path and latency-attribution report —
// the paper's §5 evaluation currency ("where does time-to-bare-metal
// go") as a machine-checkable artifact.
//
// # Attribution model
//
// Each instance's time-to-ready window [requested, ready] is decomposed
// by exact hierarchical subtraction, so the buckets sum to the measured
// total by construction (no residual "other" bucket):
//
//	firmware        requested → Initialization span start
//	vmm-init        the Initialization phase (VMM network boot)
//	guest-local     boot window time outside mediated commands
//	mediation       mediated-command time outside AoE round trips
//	net-wait        AoE round-trip time not accounted on the server
//	server-queue    vblade queue wait (serve-span qwait attribute)
//	cache-miss      cold-storage stalls (serve-span cold attribute)
//	server-service  remaining vblade service time (CPU + copy-out)
//
// Only spans on the guest's critical path count: mediated redirect and
// protect spans parented (transitively) under the guest's boot, and the
// AoE round trips parented under those. Background-copy traffic hangs
// off bg-fetch spans and is excluded automatically by the parent filter.
//
// # Determinism
//
// All arithmetic is integer nanoseconds; instances, buckets, sources,
// and anomalies are emitted in sorted order; the JSON encoding has no
// maps. Same seed, same trace, byte-identical report.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BucketNames is the fixed bucket order of every attribution.
var BucketNames = []string{
	"firmware", "vmm-init", "guest-local", "mediation",
	"net-wait", "server-queue", "cache-miss", "server-service",
}

// Bucket is one attribution component.
type Bucket struct {
	Name string `json:"name"`
	Dur  int64  `json:"dur_ns"`
}

// PathStep is one hop of an instance's critical-path chain.
type PathStep struct {
	Node string `json:"node"`
	Cat  string `json:"cat"`
	Name string `json:"name"`
	Dur  int64  `json:"dur_ns"`
}

// Instance is one analyzed deployment.
type Instance struct {
	Node            string     `json:"node"`
	ID              int64      `json:"instance"` // cloud instance ID, -1 unknown
	Requested       int64      `json:"requested_ns"`
	Ready           int64      `json:"ready_ns"`
	BareMetal       int64      `json:"baremetal_ns,omitempty"`
	TimeToReady     int64      `json:"time_to_ready_ns"`
	TimeToBareMetal int64      `json:"time_to_baremetal_ns,omitempty"`
	Buckets         []Bucket   `json:"buckets"`
	CriticalPath    []PathStep `json:"critical_path,omitempty"`
}

// Percentiles summarizes a latency population (nearest-rank).
type Percentiles struct {
	P50   int64 `json:"p50_ns"`
	P99   int64 `json:"p99_ns"`
	Worst int64 `json:"worst_ns"`
}

// Fleet is the cross-instance summary.
type Fleet struct {
	Instances int          `json:"instances"`
	Ready     Percentiles  `json:"time_to_ready"`
	BareMetal *Percentiles `json:"time_to_baremetal,omitempty"`
	Buckets   []Bucket     `json:"bucket_totals"`
}

// Source is one serving source's byte count (from the metrics snapshot).
type Source struct {
	Node  string `json:"node"`
	Bytes int64  `json:"served_bytes"`
}

// Anomaly flags an instance whose time-to-ready is well above the fleet
// median, with the bucket that explains most of the delta.
type Anomaly struct {
	Node        string  `json:"node"`
	ID          int64   `json:"instance"`
	DeltaPct    float64 `json:"delta_pct"`     // % over fleet median
	TopBucket   string  `json:"top_bucket"`    // largest bucket excess vs median
	TopSharePct float64 `json:"top_share_pct"` // share of the delta it explains
}

// Report is the full analysis output.
type Report struct {
	Instances []Instance `json:"instances"`
	Fleet     Fleet      `json:"fleet"`
	Sources   []Source   `json:"sources,omitempty"`
	Anomalies []Anomaly  `json:"anomalies,omitempty"`
}

// anomalyThreshold flags instances this fraction above the median.
const anomalyThreshold = 1.10

// index holds one-pass lookups over a trace. A fleet trace carries
// hundreds of thousands of spans and hundreds of instances; analysis
// walks each instance's own spans through these maps instead of
// re-scanning the whole trace per node, which turned Analyze quadratic.
type index struct {
	byID     map[int64]*trace.Span
	byNode   map[string][]*trace.Span
	events   map[string][]*trace.Event
	children map[int64][]*trace.Span
	flows    map[int64][]*trace.Span
	// serves lists aoe/serve spans keyed by the request span they flowed
	// from, for the per-request server-side split.
	serves map[int64][]*trace.Span
}

// newIndex builds every lookup in one pass over spans and events; all
// per-key lists preserve recording order, so downstream iteration sees
// the same sequence a full scan would.
func newIndex(tr *trace.Recorder) *index {
	spans := tr.Spans()
	ix := &index{
		byID:     make(map[int64]*trace.Span, len(spans)),
		byNode:   map[string][]*trace.Span{},
		events:   map[string][]*trace.Event{},
		children: map[int64][]*trace.Span{},
		flows:    map[int64][]*trace.Span{},
		serves:   map[int64][]*trace.Span{},
	}
	for _, s := range spans {
		ix.byID[s.ID] = s
		ix.byNode[s.Node] = append(ix.byNode[s.Node], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
		if s.FlowFrom != 0 {
			ix.flows[s.FlowFrom] = append(ix.flows[s.FlowFrom], s)
			if s.Cat == "aoe" && s.Name == "serve" {
				ix.serves[s.FlowFrom] = append(ix.serves[s.FlowFrom], s)
			}
		}
	}
	for i := range tr.Events() {
		e := &tr.Events()[i]
		ix.events[e.Node] = append(ix.events[e.Node], e)
	}
	return ix
}

// Analyze builds the report from a recorded trace and an optional
// metrics snapshot (pass the zero Snapshot when none is available).
func Analyze(tr *trace.Recorder, snap metrics.Snapshot) (*Report, error) {
	if tr == nil {
		return nil, fmt.Errorf("obs: nil trace recorder")
	}
	ix := newIndex(tr)
	nodes := instanceNodes(ix)
	rep := &Report{}
	for _, node := range nodes {
		in, err := analyzeInstance(ix, node)
		if err != nil {
			return nil, fmt.Errorf("obs: %s: %w", node, err)
		}
		if in != nil {
			rep.Instances = append(rep.Instances, *in)
		}
	}
	rep.Fleet = summarize(rep.Instances)
	rep.Sources = sources(snap)
	rep.Anomalies = anomalies(rep.Instances)
	return rep, nil
}

// instanceNodes lists, sorted, every node with an Initialization phase
// span — the signature of a deployment start.
func instanceNodes(ix *index) []string {
	var out []string
	for node, spans := range ix.byNode {
		for _, s := range spans {
			if s.Cat == "phase" && s.Name == "Initialization" {
				out = append(out, node)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// cloudEvent returns the time of the first cloud event with the given
// name on node, and the instance ID attribute (-1 if absent).
func cloudEvent(ix *index, node, name string) (sim.Time, int64, bool) {
	for _, e := range ix.events[node] {
		if e.Cat == "cloud" && e.Name == name {
			return e.Time, attrInt(e.Args, "instance", -1), true
		}
	}
	return 0, -1, false
}

// analyzeInstance decomposes one node's deployment. It returns nil (no
// error) when the node never reached ready.
func analyzeInstance(ix *index, node string) (*Instance, error) {
	var init, boot *trace.Span
	for _, s := range ix.byNode[node] {
		if init == nil && s.Cat == "phase" && s.Name == "Initialization" {
			init = s
		}
		if boot == nil && s.Cat == "guest" && s.Name == "boot" {
			boot = s
		}
	}
	if init == nil {
		return nil, fmt.Errorf("no Initialization span")
	}

	requested, id, haveReq := cloudEvent(ix, node, "requested")
	if !haveReq {
		// Single-node runs (bmcast-sim) have no cloud control plane; the
		// window starts at the earliest recorded instant on the node.
		requested = init.Start
		for _, e := range ix.events[node] {
			if e.Time < requested {
				requested = e.Time
			}
		}
	}
	ready, _, haveReady := cloudEvent(ix, node, "ready")
	if !haveReady {
		if boot == nil || boot.Open {
			return nil, nil // never became ready; nothing to attribute
		}
		ready = boot.Stop
	}
	in := &Instance{
		Node:        node,
		ID:          id,
		Requested:   int64(requested),
		Ready:       int64(ready),
		TimeToReady: int64(ready.Sub(requested)),
	}
	if bm, _, ok := cloudEvent(ix, node, "baremetal"); ok {
		in.BareMetal, in.TimeToBareMetal = int64(bm), int64(bm.Sub(requested))
	} else if sp := firstPhase(ix, node, "BareMetal"); sp != nil {
		in.BareMetal, in.TimeToBareMetal = int64(sp.Start), int64(sp.Start.Sub(requested))
	}

	in.Buckets = attribute(ix, node, init, requested, ready)
	if boot != nil {
		in.CriticalPath = criticalPath(ix, boot)
	}
	return in, nil
}

func firstPhase(ix *index, node, name string) *trace.Span {
	for _, s := range ix.byNode[node] {
		if s.Cat == "phase" && s.Name == name {
			return s
		}
	}
	return nil
}

// attribute performs the exact-sum decomposition of [requested, ready].
func attribute(ix *index, node string, init *trace.Span, requested, ready sim.Time) []Bucket {
	total := ready.Sub(requested)
	firmware := clampDur(init.Start.Sub(requested), total)
	initStop := init.Stop
	if init.Open || initStop > ready {
		initStop = ready
	}
	vmmInit := clampDur(initStop.Sub(init.Start), total-firmware)
	// Boot window: everything after VMM init up to ready.
	w0, w1 := init.Start.Add(vmmInit), ready

	// Mediated guest commands: redirect/protect spans on this node that
	// are on the guest's causal path (transitively under the boot span,
	// or parentless for robustness against untraced issue paths).
	var med []*trace.Span
	medIDs := map[int64]bool{}
	for _, s := range ix.byNode[node] {
		if s.Cat != "mediator" {
			continue
		}
		if s.Name != "redirect" && s.Name != "protect" {
			continue
		}
		if !onGuestPath(ix.byID, s) {
			continue
		}
		med = append(med, s)
		medIDs[s.ID] = true
	}
	medUnion := unionWithin(med, w0, w1)

	// AoE round trips issued by those mediated commands.
	var reqs []*trace.Span
	for _, s := range ix.byNode[node] {
		if s.Cat != "aoe" {
			continue
		}
		if s.Name != "read" && s.Name != "write" {
			continue
		}
		if !medIDs[s.Parent] {
			continue
		}
		reqs = append(reqs, s)
	}
	aoeUnion := unionWithin(reqs, w0, w1)
	mediation := medUnion - aoeUnion
	guestLocal := clampDur(w1.Sub(w0)-medUnion, w1.Sub(w0))

	// Per-request server-side split. The requests are serialized by the
	// mediator's device lock, so their clipped durations sum to the
	// union; apportion guards the exact-sum property anyway.
	durs := make([]int64, len(reqs))
	for i, r := range reqs {
		durs[i] = int64(clipLen(r, w0, w1))
	}
	durs = apportion(int64(aoeUnion), durs)
	var netWait, queue, miss, service int64
	for i, r := range reqs {
		var qsum, csum, ssum int64
		for _, sv := range ix.serves[r.ID] {
			q := attrInt(sv.Args, "qwait", 0)
			c := attrInt(sv.Args, "cold", 0)
			d := int64(sv.Duration())
			qsum += q
			csum += c
			ssum += maxInt64(d-c, 0)
		}
		server := qsum + csum + ssum
		if server > durs[i] {
			server = durs[i]
		}
		parts := apportion(server, []int64{qsum, csum, ssum})
		queue += parts[0]
		miss += parts[1]
		service += parts[2]
		netWait += durs[i] - server
	}

	return []Bucket{
		{Name: "firmware", Dur: int64(firmware)},
		{Name: "vmm-init", Dur: int64(vmmInit)},
		{Name: "guest-local", Dur: int64(guestLocal)},
		{Name: "mediation", Dur: int64(mediation)},
		{Name: "net-wait", Dur: netWait},
		{Name: "server-queue", Dur: queue},
		{Name: "cache-miss", Dur: miss},
		{Name: "server-service", Dur: service},
	}
}

// onGuestPath reports whether s is transitively parented under a guest
// boot span. Parentless mediated commands (issued by an untraced proc)
// count as guest-path for robustness.
func onGuestPath(byID map[int64]*trace.Span, s *trace.Span) bool {
	if s.Parent == 0 {
		return true
	}
	for cur := byID[s.Parent]; cur != nil; cur = byID[cur.Parent] {
		if cur.Cat == "guest" && cur.Name == "boot" {
			return true
		}
		if cur.Cat == "vmm" { // bg-fetch / bg-write: background traffic
			return false
		}
		if cur.Parent == 0 {
			return true // rooted elsewhere (e.g. directly under a phase)
		}
	}
	return true
}

// criticalPath walks the longest-child chain down from the boot span,
// crossing to the server via the flow edge at the bottom.
func criticalPath(ix *index, boot *trace.Span) []PathStep {
	var out []PathStep
	for cur := boot; cur != nil; {
		out = append(out, PathStep{Node: cur.Node, Cat: cur.Cat, Name: cur.Name, Dur: int64(cur.Duration())})
		next := longest(ix.children[cur.ID])
		if next == nil {
			// Cross the network: the serve span this request flowed into.
			if sv := longest(ix.flows[cur.ID]); sv != nil && sv != cur {
				out = append(out, PathStep{Node: sv.Node, Cat: sv.Cat, Name: sv.Name, Dur: int64(sv.Duration())})
			}
			break
		}
		cur = next
	}
	return out
}

// longest picks the longest span (earliest start, then lowest ID, break
// ties) — deterministic under equal durations.
func longest(spans []*trace.Span) *trace.Span {
	var best *trace.Span
	for _, s := range spans {
		if best == nil || s.Duration() > best.Duration() ||
			(s.Duration() == best.Duration() && s.ID < best.ID) {
			best = s
		}
	}
	return best
}

// summarize computes fleet percentiles and bucket totals.
func summarize(ins []Instance) Fleet {
	f := Fleet{Instances: len(ins)}
	if len(ins) == 0 {
		return f
	}
	ready := make([]int64, 0, len(ins))
	var bm []int64
	totals := make([]int64, len(BucketNames))
	for _, in := range ins {
		ready = append(ready, in.TimeToReady)
		if in.TimeToBareMetal > 0 {
			bm = append(bm, in.TimeToBareMetal)
		}
		for i, b := range in.Buckets {
			totals[i] += b.Dur
		}
	}
	f.Ready = percentiles(ready)
	if len(bm) > 0 {
		p := percentiles(bm)
		f.BareMetal = &p
	}
	for i, name := range BucketNames {
		f.Buckets = append(f.Buckets, Bucket{Name: name, Dur: totals[i]})
	}
	return f
}

// percentiles computes nearest-rank p50/p99/worst over vs.
func percentiles(vs []int64) Percentiles {
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(p float64) int64 {
		r := int(math.Ceil(p / 100 * float64(len(s))))
		if r < 1 {
			r = 1
		}
		if r > len(s) {
			r = len(s)
		}
		return s[r-1]
	}
	return Percentiles{P50: rank(50), P99: rank(99), Worst: s[len(s)-1]}
}

// sources extracts per-source served bytes from the snapshot.
func sources(snap metrics.Snapshot) []Source {
	var out []Source
	for _, s := range snap.Prefixed("vblade.bytes_served") {
		node := ""
		for _, l := range s.Labels {
			if l.Key == "node" {
				node = l.Value
			}
		}
		out = append(out, Source{Node: node, Bytes: int64(s.Value)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// anomalies flags instances >10% over the fleet median and names the
// bucket explaining the largest share of the excess.
func anomalies(ins []Instance) []Anomaly {
	if len(ins) < 2 {
		return nil
	}
	ttrs := make([]int64, len(ins))
	for i, in := range ins {
		ttrs[i] = in.TimeToReady
	}
	median := percentiles(ttrs).P50
	if median <= 0 {
		return nil
	}
	// Per-bucket medians across the fleet.
	bmed := make([]int64, len(BucketNames))
	col := make([]int64, len(ins))
	for bi := range BucketNames {
		for i, in := range ins {
			col[i] = in.Buckets[bi].Dur
		}
		bmed[bi] = percentiles(col).P50
	}
	var out []Anomaly
	for _, in := range ins {
		if float64(in.TimeToReady) <= anomalyThreshold*float64(median) {
			continue
		}
		delta := in.TimeToReady - median
		topIdx, topExcess := 0, int64(0)
		for bi, b := range in.Buckets {
			if ex := b.Dur - bmed[bi]; ex > topExcess {
				topIdx, topExcess = bi, ex
			}
		}
		share := 0.0
		if delta > 0 {
			share = roundPct(100 * float64(topExcess) / float64(delta))
		}
		out = append(out, Anomaly{
			Node:        in.Node,
			ID:          in.ID,
			DeltaPct:    roundPct(100 * float64(delta) / float64(median)),
			TopBucket:   BucketNames[topIdx],
			TopSharePct: share,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DeltaPct != out[j].DeltaPct {
			return out[i].DeltaPct > out[j].DeltaPct
		}
		return out[i].Node < out[j].Node
	})
	return out
}

func roundPct(x float64) float64 {
	if x < 0 {
		return float64(int64(x*10-0.5)) / 10
	}
	return float64(int64(x*10+0.5)) / 10
}

// --- interval helpers ----------------------------------------------------

// clipLen returns the length of span s clipped to [a, b].
func clipLen(s *trace.Span, a, b sim.Time) sim.Duration {
	lo, hi := s.Start, s.Stop
	if s.Open {
		hi = b
	}
	if lo < a {
		lo = a
	}
	if hi > b {
		hi = b
	}
	if hi <= lo {
		return 0
	}
	return hi.Sub(lo)
}

// unionWithin returns the total length of the union of the spans clipped
// to [a, b].
func unionWithin(spans []*trace.Span, a, b sim.Time) sim.Duration {
	type iv struct{ lo, hi sim.Time }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		lo, hi := s.Start, s.Stop
		if s.Open {
			hi = b
		}
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total sim.Duration
	var curLo, curHi sim.Time
	started := false
	for _, v := range ivs {
		if !started || v.lo > curHi {
			if started {
				total += curHi.Sub(curLo)
			}
			curLo, curHi, started = v.lo, v.hi, true
			continue
		}
		if v.hi > curHi {
			curHi = v.hi
		}
	}
	if started {
		total += curHi.Sub(curLo)
	}
	return total
}

// apportion scales parts to sum exactly to total, preserving proportions
// via largest-remainder integer apportionment. A zero parts-sum returns
// all zeros (total is then unattributed by the caller's construction).
func apportion(total int64, parts []int64) []int64 {
	out := make([]int64, len(parts))
	var sum int64
	for _, p := range parts {
		sum += p
	}
	if sum == 0 || total == 0 {
		return out
	}
	if sum == total {
		copy(out, parts)
		return out
	}
	type rem struct {
		idx int
		r   uint64
	}
	rems := make([]rem, len(parts))
	var assigned int64
	for i, p := range parts {
		// p*total can exceed int64 for nanosecond durations; do the
		// scaled division in 128 bits. p <= sum, so the quotient fits.
		hi, lo := bits.Mul64(uint64(p), uint64(total))
		q, r := bits.Div64(hi, lo, uint64(sum))
		out[i] = int64(q)
		rems[i] = rem{idx: i, r: r}
		assigned += out[i]
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].r != rems[j].r {
			return rems[i].r > rems[j].r
		}
		return rems[i].idx < rems[j].idx
	})
	for k := int64(0); k < total-assigned; k++ {
		out[rems[int(k)%len(rems)].idx]++
	}
	return out
}

func clampDur(d, max sim.Duration) sim.Duration {
	if d < 0 {
		return 0
	}
	if d > max {
		return max
	}
	return d
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// attrInt fetches an integer attribute by key, accepting the typed
// integer the live recorder stores and the float64 a JSON re-import
// produces.
func attrInt(attrs []trace.Attr, key string, def int64) int64 {
	for _, a := range attrs {
		if a.Key != key {
			continue
		}
		if a.Kind == trace.IntAttr {
			return a.Num
		}
		if v, ok := a.Value.(float64); ok {
			return int64(v)
		}
	}
	return def
}
