package testbed

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/guest"
	"repro/internal/hw/ahci"
	hwio "repro/internal/hw/io"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// deploy runs a full small deployment to bare metal and returns the testbed
// and its result.
func deploy(t *testing.T, cfg Config) (*Testbed, *Node, *BMcastResult) {
	t.Helper()
	return deployWith(t, cfg, nil)
}

// deployWith is deploy with setup, if non-nil, applied to the node before
// the deployment starts.
func deployWith(t *testing.T, cfg Config, setup func(n *Node)) (*Testbed, *Node, *BMcastResult) {
	t.Helper()
	tb := New(cfg)
	n := tb.AddNode(cfg)
	n.M.Firmware.InitTime = sim.Second
	if setup != nil {
		setup(n)
	}
	var res *BMcastResult
	tb.K.Spawn("deploy", func(p *sim.Proc) {
		r, err := tb.DeployBMcast(p, n, core.DefaultConfig(), quickBoot(cfg))
		if err != nil {
			t.Error(err)
			tb.K.Stop()
			return
		}
		tb.WaitBareMetal(p, n, r)
		res = r
		tb.K.Stop()
	})
	tb.K.Run()
	if res == nil {
		t.Fatal("deployment did not complete")
	}
	return tb, n, res
}

// chromeEvent mirrors the trace-event JSON fields the tests inspect.
type chromeJSON struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestDeployTraceExport(t *testing.T) {
	cfg := small()
	cfg.EnableTrace = true
	tb, _, res := deploy(t, cfg)
	if res.Trace != tb.Trace || res.Trace == nil {
		t.Fatal("result does not carry the testbed's trace recorder")
	}

	var buf bytes.Buffer
	if err := tb.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeJSON
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}

	byName := map[string]int{}
	byCat := map[string]int{}
	byPh := map[string]int{}
	for _, e := range ct.TraceEvents {
		switch e.Ph {
		case "X", "i", "M", "s", "f":
		default:
			t.Fatalf("unexpected phase type %q in event %q", e.Ph, e.Name)
		}
		byName[e.Name]++
		byCat[e.Cat]++
		byPh[e.Ph]++
	}
	// Causal flow events come in start/finish pairs.
	if byPh["s"] == 0 || byPh["s"] != byPh["f"] {
		t.Fatalf("flow events unpaired: %d starts, %d finishes", byPh["s"], byPh["f"])
	}
	for _, phase := range []string{"Initialization", "Deployment", "Devirtualization", "BareMetal"} {
		if byName[phase] != 1 {
			t.Fatalf("phase span %q appears %d times, want 1", phase, byName[phase])
		}
	}
	if byCat["mediator"] == 0 {
		t.Fatal("no mediator spans in the trace")
	}
	if byCat["aoe"] == 0 {
		t.Fatal("no AoE spans in the trace")
	}

	// The open BareMetal span must be exported and flagged unfinished.
	for _, e := range ct.TraceEvents {
		if e.Name == "BareMetal" && e.Ph == "X" {
			if e.Args["unfinished"] != true {
				t.Fatalf("open BareMetal span args = %v, want unfinished=true", e.Args)
			}
		}
	}

	// Phase spans are ordered and contiguous in the queryable view too.
	var prev sim.Time
	for _, phase := range []string{"Initialization", "Deployment", "Devirtualization"} {
		sp := res.Trace.FirstSpan(phase)
		if sp == nil || sp.Open {
			t.Fatalf("phase span %q missing or still open", phase)
		}
		if sp.Start < prev {
			t.Fatalf("phase %q starts at %v, before previous phase ended (%v)", phase, sp.Start, prev)
		}
		prev = sp.Stop
	}
	bm := res.Trace.FirstSpan("BareMetal")
	if bm == nil || !bm.Open {
		t.Fatal("BareMetal span missing or unexpectedly closed")
	}
}

func TestDevirtTraceInvariant(t *testing.T) {
	cfg := small()
	cfg.EnableTrace = true
	_, n, res := deploy(t, cfg)

	devirt := res.Trace.FirstSpan("Devirtualization")
	if devirt == nil || devirt.Open {
		t.Fatal("no completed Devirtualization span")
	}
	if devirt.Stop != n.VMM.DevirtedAt {
		t.Fatalf("Devirtualization span ends at %v, VMM says %v", devirt.Stop, n.VMM.DevirtedAt)
	}

	// Seamless hand-off: once de-virtualization completes, no mediated I/O
	// may start and no VM exit may occur.
	for _, sp := range res.Trace.SpansInCat("mediator") {
		if sp.Start >= devirt.Stop {
			t.Fatalf("mediator span %q starts at %v, after de-virtualization ended at %v",
				sp.Name, sp.Start, devirt.Stop)
		}
		if sp.Open {
			t.Fatalf("mediator span %q still open after deployment", sp.Name)
		}
	}
	for _, ev := range res.Trace.EventsInCat("cpuvirt") {
		if ev.Time > devirt.Stop {
			t.Fatalf("vm-exit event at %v, after de-virtualization ended at %v", ev.Time, devirt.Stop)
		}
	}
	// There was mediation and there were exits — the invariant is not
	// vacuous.
	if len(res.Trace.SpansInCat("mediator")) == 0 || len(res.Trace.EventsInCat("cpuvirt")) == 0 {
		t.Fatal("expected mediator spans and vm-exit events during deployment")
	}
}

// TestCausalEdges pins the causal DAG a traced deployment records: the
// guest boot span roots under a phase span, mediated commands parent
// under the boot, AoE round trips parent under the mediated command that
// issued them, and every vblade serve span links back across the network
// to the initiator span that sent the request.
func TestCausalEdges(t *testing.T) {
	cfg := small()
	cfg.EnableTrace = true
	var initDrv *initCauseDriver
	_, _, res := deployWith(t, cfg, func(n *Node) {
		initDrv = &initCauseDriver{BlockDriver: n.OS.Drv, n: n}
		n.OS.SetDriver(initDrv)
	})
	tr := res.Trace

	byID := map[int64]*trace.Span{}
	for _, s := range tr.Spans() {
		if s.ID == 0 {
			t.Fatalf("span %q has no ID", s.Name)
		}
		if byID[s.ID] != nil {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		byID[s.ID] = s
	}

	boot := tr.FirstSpan("boot")
	if boot == nil {
		t.Fatal("no guest boot span")
	}
	if p := byID[boot.Parent]; p == nil || p.Cat != "phase" {
		t.Fatalf("boot span parent = %+v, want a phase span", p)
	}

	// Mediated guest commands parent under the boot span; the AoE round
	// trips they trigger parent under them in turn.
	var bootChildren, aoeUnderMediator int
	for _, sp := range tr.SpansInCat("mediator") {
		if sp.Parent == boot.ID {
			bootChildren++
		}
	}
	if bootChildren == 0 {
		t.Fatal("no mediator span parents under the guest boot span")
	}
	for _, sp := range tr.SpansInCat("aoe") {
		if sp.Name != "read" && sp.Name != "write" {
			continue
		}
		if p := byID[sp.Parent]; p != nil && p.Cat == "mediator" {
			aoeUnderMediator++
		}
	}
	if aoeUnderMediator == 0 {
		t.Fatal("no AoE round trip parents under a mediated command")
	}

	// Background-copy AoE traffic must NOT parent under mediator spans —
	// it hangs off the vmm bg-fetch spans, keeping the guest's critical
	// path clean.
	for _, sp := range tr.SpansNamed("bg-fetch") {
		if p := byID[sp.Parent]; p == nil || p.Cat != "phase" {
			t.Fatalf("bg-fetch parent = %+v, want the phase span", p)
		}
	}

	// Each bg-fetch span parents exactly one span: the AoE read of its
	// run.
	children := map[int64][]*trace.Span{}
	for _, s := range tr.Spans() {
		children[s.Parent] = append(children[s.Parent], s)
	}
	fetches := tr.SpansNamed("bg-fetch")
	if len(fetches) == 0 {
		t.Fatal("no bg-fetch spans recorded")
	}
	for _, f := range fetches {
		kids := children[f.ID]
		if len(kids) != 1 || kids[0].Cat != "aoe" || kids[0].Name != "read" ||
			attr(kids[0], "lba") != attr(f, "lba") || attr(kids[0], "count") != attr(f, "count") {
			t.Fatalf("bg-fetch %d (lba %v) children = %v, want its one AoE read", f.ID, attr(f, "lba"), names(kids))
		}
	}

	// Each bg-write span parents the insert-write mediator spans of its
	// unfilled runs, and every insert-write parents under a bg-write.
	writes := tr.SpansNamed("bg-write")
	if len(writes) == 0 {
		t.Fatal("no bg-write spans recorded")
	}
	for _, w := range writes {
		kids := children[w.ID]
		if len(kids) == 0 {
			t.Fatalf("bg-write %d (lba %v) parents no insert-write span", w.ID, attr(w, "lba"))
		}
		for _, k := range kids {
			if k.Cat != "mediator" || k.Name != "insert-write" {
				t.Fatalf("bg-write %d child = %s/%s, want mediator/insert-write", w.ID, k.Cat, k.Name)
			}
		}
	}
	for _, sp := range tr.SpansNamed("insert-write") {
		if p := byID[sp.Parent]; p == nil || p.Name != "bg-write" {
			t.Fatalf("insert-write %d parent = %+v, want a bg-write span", sp.ID, p)
		}
	}

	// The register writes the AHCI driver's Init programs, the IDENTIFY
	// command's PxCI issue among them, carry the boot span into the
	// mediator.
	if len(initDrv.writes) == 0 {
		t.Fatal("no trapped register write recorded during driver Init")
	}
	issued := false
	for _, w := range initDrv.writes {
		if !initWriteRegs[w.off] {
			continue // interrupt context: no guest cause
		}
		if w.cause != boot {
			t.Fatalf("Init write to ABAR+%#x carried cause %v, want the boot span %d",
				w.off, w.cause.SpanID(), boot.ID)
		}
		issued = issued || w.off == ahci.PortBase+ahci.PxCI
	}
	if !issued {
		t.Fatal("no IDENTIFY issue recorded during driver Init")
	}

	// Every serve span on the server links back to an initiator-side span
	// via a flow edge.
	serves := tr.SpansNamed("serve")
	if len(serves) == 0 {
		t.Fatal("no serve spans recorded")
	}
	for _, sp := range serves {
		src := byID[sp.FlowFrom]
		if src == nil || src.Cat != "aoe" || src.Node == sp.Node {
			t.Fatalf("serve span flow-from = %+v, want a client-side aoe span", src)
		}
	}

	// Phase spans chain through flow edges.
	dep := tr.FirstSpan("Deployment")
	ini := tr.FirstSpan("Initialization")
	if dep == nil || ini == nil || dep.FlowFrom != ini.ID {
		t.Fatal("Deployment phase does not flow from Initialization")
	}
}

// attr returns the value of the span's integer argument named key, or -1.
func attr(s *trace.Span, key string) int64 {
	for _, a := range s.Args {
		if a.Key == key && a.Kind == trace.IntAttr {
			return a.Num
		}
	}
	return -1
}

// names lists spans as cat/name, for failure messages.
func names(spans []*trace.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Cat + "/" + s.Name
	}
	return out
}

// initWriteRegs are the AHCI registers (offsets from ABAR) the guest
// driver's Init writes from the booting process: port setup and the
// IDENTIFY's PxCI issue. Its interrupt handler's acknowledgements are
// not among them.
var initWriteRegs = map[int64]bool{
	ahci.RegGHC:                 true,
	ahci.PortBase + ahci.PxCLB:  true,
	ahci.PortBase + ahci.PxCLBU: true,
	ahci.PortBase + ahci.PxFB:   true,
	ahci.PortBase + ahci.PxFBU:  true,
	ahci.PortBase + ahci.PxIE:   true,
	ahci.PortBase + ahci.PxCMD:  true,
	ahci.PortBase + ahci.PxCI:   true,
}

// initWrite is one trapped register write seen during driver Init.
type initWrite struct {
	off   int64
	cause *trace.Span
}

// initCauseDriver wraps the guest's block driver. For the length of its
// Init it interposes a recording tap in front of the mediator's on the
// AHCI register region, so the test sees the causal span each trapped
// write carries.
type initCauseDriver struct {
	guest.BlockDriver
	n      *Node
	writes []initWrite
}

func (d *initCauseDriver) Init(p *sim.Proc, cause *trace.Span) error {
	region := d.n.M.IO.Find(hwio.MMIO, ahci.ABAR).Name
	med := d.n.VMM.Mediator().(hwio.Tap)
	d.n.M.IO.SetTap(region, &recordingTap{Tap: med, d: d})
	defer d.n.M.IO.SetTap(region, med)
	return d.BlockDriver.Init(p, cause)
}

// recordingTap records each write's offset and cause, then hands the
// access to the tap it wraps.
type recordingTap struct {
	hwio.Tap
	d *initCauseDriver
}

func (t *recordingTap) TapWrite(r *hwio.Region, off int64, size int, v uint64, cause *trace.Span) bool {
	t.d.writes = append(t.d.writes, initWrite{off, cause})
	return t.Tap.TapWrite(r, off, size, v, cause)
}

func TestMetricsSnapshotSubsystems(t *testing.T) {
	cfg := small()
	tb, n, _ := deploy(t, cfg)
	snap := tb.Metrics.Snapshot()

	// One run must populate all the major subsystems in one registry.
	var exits float64
	for _, s := range snap.Prefixed("cpuvirt.exits") {
		exits += s.Value
	}
	if exits == 0 {
		t.Fatal("no cpuvirt exits recorded in the registry")
	}
	if got := snap.CounterValue("mediator.guest_commands", metrics.L("node", n.M.Name)); got == 0 {
		t.Fatal("no mediator guest commands recorded")
	}
	if got := snap.CounterValue("aoe.requests", metrics.L("node", n.M.Name)); got == 0 {
		t.Fatal("no AoE requests recorded")
	}
	if _, ok := snap.Get("aoe.retransmits", metrics.L("node", n.M.Name)); !ok {
		t.Fatal("AoE retransmit counter not registered")
	}
	var linkBytes float64
	for _, s := range snap.Prefixed("ethernet.bytes") {
		linkBytes += s.Value
	}
	if linkBytes == 0 {
		t.Fatal("no ethernet link bytes recorded")
	}
	if got := snap.CounterValue("vmm.copied_bytes", metrics.L("node", n.M.Name)); got == 0 {
		t.Fatal("no background-copied bytes recorded")
	}
	if got := snap.CounterValue("vblade.requests", metrics.L("node", "server")); got == 0 {
		t.Fatal("no vblade requests recorded")
	}
	// The recovery instruments are registered on every run, even without
	// faults: zero is a meaningful reading.
	if _, ok := snap.Get("aoe.failovers", metrics.L("node", n.M.Name)); !ok {
		t.Fatal("AoE failover counter not registered")
	}
	if _, ok := snap.Get("vmm.watchdog_fires", metrics.L("node", n.M.Name)); !ok {
		t.Fatal("VMM watchdog counter not registered")
	}

	// The text dump renders without error and mentions each subsystem.
	var b strings.Builder
	snap.WriteText(&b)
	for _, want := range []string{"cpuvirt.", "mediator.", "aoe.", "ethernet.", "vmm.", "vblade."} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("metrics dump missing %q", want)
		}
	}
}

// TestChaosMetricsPopulated runs a deployment under a fault schedule that
// crashes the primary server mid-run and checks that the chaos
// instruments — injected faults, server crashes, AoE failovers — all land
// in the shared registry.
func TestChaosMetricsPopulated(t *testing.T) {
	cfg := small()
	tb := New(cfg)
	tb.AddSecondaryServer(cfg)
	n := tb.AddNode(cfg)
	n.M.Firmware.InitTime = sim.Second

	sched, err := faults.Parse("3s crash server; 5s loss node0.vmm 0.02; 8s loss node0.vmm 0")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.NewFaultInjector().Apply(sched); err != nil {
		t.Fatal(err)
	}

	var res *BMcastResult
	tb.K.Spawn("deploy", func(p *sim.Proc) {
		r, err := tb.DeployBMcast(p, n, core.DefaultConfig(), quickBoot(cfg))
		if err != nil {
			t.Error(err)
			tb.K.Stop()
			return
		}
		tb.WaitBareMetal(p, n, r)
		res = r
		tb.K.Stop()
	})
	tb.K.RunUntil(sim.Time(2 * sim.Hour))
	if res == nil {
		t.Fatal("deployment did not complete under the fault schedule")
	}

	snap := tb.Metrics.Snapshot()
	if got := snap.CounterValue("faults.injected"); got != 3 {
		t.Fatalf("faults.injected = %v, want 3", got)
	}
	if got := snap.CounterValue("vblade.crashes", metrics.L("node", "server")); got != 1 {
		t.Fatalf("vblade.crashes = %v, want 1", got)
	}
	if got := snap.CounterValue("aoe.failovers", metrics.L("node", n.M.Name)); got == 0 {
		t.Fatal("no AoE failovers recorded despite a primary crash")
	}
	if got := snap.CounterValue("vmm.watchdog_fires", metrics.L("node", n.M.Name)); got != 0 {
		t.Fatalf("watchdog fired %v times on a recoverable run", got)
	}
	if _, err := tb.VerifyDeployment(n); err != nil {
		t.Fatal(err)
	}
}

// TestLossAppliedToVMMLink pins the -loss semantics: loss injected on the
// node's VMM-side link forces AoE retransmission but the deployment still
// completes (and the guest link stays clean).
func TestLossAppliedToVMMLink(t *testing.T) {
	cfg := small()
	tb := New(cfg)
	n := tb.AddNode(cfg)
	n.M.Firmware.InitTime = sim.Second
	n.VMMLink.SetLossRate(0.05)
	var res *BMcastResult
	tb.K.Spawn("deploy", func(p *sim.Proc) {
		r, err := tb.DeployBMcast(p, n, core.DefaultConfig(), quickBoot(cfg))
		if err != nil {
			t.Error(err)
			tb.K.Stop()
			return
		}
		tb.WaitBareMetal(p, n, r)
		res = r
		tb.K.Stop()
	})
	tb.K.Run()
	if res == nil {
		t.Fatal("deployment did not complete under loss")
	}
	if got := n.VMM.Initiator().Retransmits.Value(); got == 0 {
		t.Fatal("5% loss on the VMM link produced no retransmits")
	}
	if n.VMMLink.Dropped() == 0 {
		t.Fatal("VMM link dropped no frames")
	}
	if n.GuestLink.Dropped() != 0 {
		t.Fatalf("guest link dropped %d frames; loss must only hit the VMM link", n.GuestLink.Dropped())
	}
	if _, err := tb.VerifyDeployment(n); err != nil {
		t.Fatal(err)
	}
}
