package testbed

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Shard-domain plumbing (DESIGN.md §13). Every testbed runs on one
// ShardSet whose domain 0 is the hub (storage servers, control plane,
// fault bookkeeping). Config.Shards picks the partition: at 0 the hub is
// the only domain and every node runs on it; above 0, whatever the value,
// domain 1+i is node i. The helpers below work on either partition: a node
// on the hub kernel is reached directly.

// NodeKernel returns the shard-domain kernel node n runs on (the hub
// kernel on the one-domain partition).
func (tb *Testbed) NodeKernel(n *Node) *sim.Kernel { return n.M.K }

// NodeIndex returns n's index in Nodes, or -1.
func (tb *Testbed) NodeIndex(n *Node) int {
	for i, cand := range tb.Nodes {
		if cand == n {
			return i
		}
	}
	return -1
}

// RunOnNode spawns fn as a process on node n's domain, scheduled through
// the cross-domain post path so it is legal from hub events or processes.
// A node on the hub kernel spawns directly.
func (tb *Testbed) RunOnNode(n *Node, name string, fn func(p *sim.Proc)) {
	nk := n.M.K
	if nk == tb.K {
		nk.Spawn(name, fn)
		return
	}
	tb.K.Post(nk, tb.K.Now(), func() { nk.Spawn(name, fn) })
}

// PostToHub schedules fn on the hub domain from domain kernel from: at the
// next window barrier from a node domain, at the current instant from the
// hub itself.
func (tb *Testbed) PostToHub(from *sim.Kernel, fn func()) {
	from.Post(tb.K, from.Now(), fn)
}

// TraceMerged returns the whole-cluster trace: the hub lane and every node
// lane merged in canonical order (lane contents depend only on the seed,
// so the merge is byte-stable), or nil when tracing is off. With no node
// lanes (the one-domain partition) the hub lane is the whole trace and is
// returned as is. Merge after the run — lanes must be quiescent.
func (tb *Testbed) TraceMerged() *trace.Recorder {
	if tb.Trace == nil || len(tb.nodeLanes) == 0 {
		return tb.Trace
	}
	lanes := make([]*trace.Recorder, 0, 1+len(tb.nodeLanes))
	lanes = append(lanes, tb.Trace)
	lanes = append(lanes, tb.nodeLanes...)
	var end sim.Time
	for _, k := range tb.Set.Domains() {
		if t := k.Now(); t > end {
			end = t
		}
	}
	return trace.Merge(trace.FixedClock(end), lanes...)
}

// shadowLink mirrors one link's carrier state onto the hub domain, fed by
// the fault injector's observer, so hub-side health probes never read a
// node domain's live link struct.
type shadowLink struct {
	a2b, b2a bool
}

// noteFault updates the link-state mirror from one fired fault event.
// Runs on the hub domain via the injector observer.
func (tb *Testbed) noteFault(ev faults.Event) {
	var down bool
	switch ev.Kind {
	case faults.LinkDown, faults.Partition:
		down = true
	case faults.LinkUp:
		down = false
	default:
		return
	}
	sh := tb.shadow[ev.Target]
	if sh == nil {
		sh = &shadowLink{}
		tb.shadow[ev.Target] = sh
	}
	switch ev.Dir.String() {
	case "tx":
		sh.a2b = down
	case "rx":
		sh.b2a = down
	default:
		sh.a2b, sh.b2a = down, down
	}
}

// LinkDownMirror reports whether the named link (injector naming:
// "node3.vmm", "server", …) is mirrored as down in either direction. Only
// fault-schedule-driven state is visible here; direct SetDown calls are
// not (and are illegal on a foreign domain's link).
func (tb *Testbed) LinkDownMirror(name string) bool {
	sh := tb.shadow[name]
	return sh != nil && (sh.a2b || sh.b2a)
}

// NodeLinksDownMirror reports the mirrored carrier state for node i's
// guest or VMM link — the stand-in for probing a node domain's links
// directly.
func (tb *Testbed) NodeLinksDownMirror(i int) bool {
	return tb.LinkDownMirror(fmt.Sprintf("node%d.guest", i)) ||
		tb.LinkDownMirror(fmt.Sprintf("node%d.vmm", i))
}
