// Package testbed wires simulated hardware into the paper's experimental
// setup: a storage server exporting OS images over AoE through a gigabit
// jumbo-frame switch, instance machines with two NICs (one dedicated to
// the VMM), and an InfiniBand fabric for the cluster experiments.
package testbed

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/guest"
	"repro/internal/hw/disk"
	"repro/internal/hw/ib"
	"repro/internal/hw/nic"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vblade"
)

// ServerMAC is the storage server's address on the deployment network.
const ServerMAC ethernet.MAC = 0x0000_0000_0001

// Testbed is one assembled cluster.
type Testbed struct {
	K      *sim.Kernel
	Switch *ethernet.Switch
	IB     *ib.Fabric

	// Set executes the testbed (DESIGN.md §13); K is its hub domain. With
	// Config.Shards == 0 the set has that one domain and every node runs
	// on K; with Shards > 0 each node gets its own domain. The switch
	// core is on K either way.
	Set *sim.ShardSet

	Image     *disk.Image
	Server    *vblade.Server
	ServerNIC *nic.NIC
	// ServerLink is the primary storage server's switch link.
	ServerLink *ethernet.Link

	// Secondaries are additional storage servers exporting the same image,
	// added via AddSecondaryServer; deployments fail over to them when the
	// primary dies.
	Secondaries []*Secondary

	Nodes []*Node

	// Metrics is the cluster-wide instrument registry (always present).
	// Trace is the structured trace recorder, nil unless Config.EnableTrace.
	// On a sharded testbed Trace is the hub domain's lane; use TraceMerged
	// for the whole-cluster view after the run.
	Metrics *metrics.Registry
	Trace   *trace.Recorder

	links []*ethernet.Link

	// perNode is set when every node gets its own domain (Shards > 0).
	// nodeLanes are then the per-node trace lanes of a traced testbed, in
	// node order. shadow mirrors link carrier state onto the hub domain
	// for control-plane probes (see noteFault / LinkDownMirror).
	perNode   bool
	nodeLanes []*trace.Recorder
	shadow    map[string]*shadowLink
}

// Node is one instance machine with its guest OS.
type Node struct {
	M   *machine.Machine
	OS  *guest.OS
	VMM *core.VMM // nil until a BMcast deployment boots it

	// GuestLink/VMMLink are the node's two switch links: NIC 0 (guest) and
	// NIC 1 (dedicated to the VMM), for fault injection.
	GuestLink *ethernet.Link
	VMMLink   *ethernet.Link
}

// Links returns the node's switch links: the guest NIC's and the VMM
// NIC's, in that order — the per-node handles fault injection targets.
func (n *Node) Links() []*ethernet.Link {
	return []*ethernet.Link{n.GuestLink, n.VMMLink}
}

// Config configures a testbed.
type Config struct {
	Seed          int64
	ImageBytes    int64 // OS image size (32 GB in the paper)
	ImageSeed     int64
	ServerThreads int // vblade worker pool size
	Storage       machine.StorageKind
	DiskSectors   int64 // 0 = full 500 GB testbed disk
	EnableTrace   bool  // record structured spans/events (see Testbed.Trace)

	// Shards picks the partition (DESIGN.md §13); only zero versus
	// non-zero matters. 0 is the one-domain partition: every node runs on
	// the hub kernel, seeded with Seed, and stays on the InfiniBand fabric.
	// Shards > 0 gives the control plane and storage servers the hub
	// domain and every node its own domain, all stepped in barrier windows
	// on the caller's goroutine, so every value ≥ 1 runs the same schedule.
	Shards int
}

// DefaultShardWindow is the barrier window of a per-node testbed, part of
// the model. It is a multiple of the minimum cross-domain latency (link
// propagation 2µs + switch latency 5µs), trading exactness of boundary
// arrival times (quantized up to the window edge) for barrier frequency.
const DefaultShardWindow = 100 * sim.Microsecond

// DefaultConfig returns the paper's setup: a 32 GB image behind a
// thread-pooled vblade on gigabit Ethernet with jumbo frames.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		ImageBytes:    32 << 30,
		ImageSeed:     42,
		ServerThreads: 8,
		Storage:       machine.StorageAHCI,
	}
}

// switchLatency is the store-and-forward latency of the testbed fabric.
const switchLatency = 5 * sim.Microsecond

// New builds a testbed with a storage server and no nodes yet.
func New(cfg Config) *Testbed {
	tb := &Testbed{
		Image:   disk.NewSynthImage("ubuntu-14.04", cfg.ImageBytes, cfg.ImageSeed),
		Metrics: metrics.NewRegistry(),
		shadow:  make(map[string]*shadowLink),
		perNode: cfg.Shards > 0,
	}
	var k *sim.Kernel
	if tb.perNode {
		tb.Set = sim.NewShardSet(cfg.Seed, DefaultShardWindow)
		k = tb.Set.NewDomain("hub")
	} else {
		tb.Set = sim.NewSerialSet(cfg.Seed)
		k = tb.Set.Domains()[0]
		// InfiniBand links nodes on the hub kernel only; the BMcast
		// deployment path never touches it.
		tb.IB = ib.QDR4X(k)
	}
	tb.K = k
	tb.Switch = ethernet.NewSwitch(k, "sw0", switchLatency)
	if cfg.EnableTrace {
		tb.Trace = trace.NewRecorder(k)
	}
	link := tb.connect(k, "server", ServerMAC)
	tb.ServerLink = link
	tb.ServerNIC = nic.New(k, "server.eth0", nic.IntelX540, ServerMAC, link)
	tb.Server = vblade.NewServer(k, tb.ServerNIC, cfg.ServerThreads)
	tb.Server.Instrument(tb.Metrics, tb.Trace, "server")
	tb.Server.AddTarget(0, 0, tb.Image)
	tb.Server.Start()
	return tb
}

// connect attaches a station on kernel k to the switch, registering its
// MACs in the forwarding table, and instruments the new link under name.
func (tb *Testbed) connect(k *sim.Kernel, name string, macs ...ethernet.MAC) *ethernet.Link {
	l := tb.Switch.ConnectOn(k, ethernet.GigabitJumbo(), macs...)
	tb.links = append(tb.links, l)
	l.Instrument(tb.Metrics, name)
	return l
}

// Sharded reports whether the nodes own shard domains (Config.Shards > 0)
// rather than running on the hub kernel K.
func (tb *Testbed) Sharded() bool { return tb.perNode }

// Secondary is one additional storage server for failover experiments.
type Secondary struct {
	Server *vblade.Server
	NIC    *nic.NIC
	MAC    ethernet.MAC
	Link   *ethernet.Link
}

// AddSecondaryServer attaches another vblade server exporting the same
// image to the switch. Deployments started afterwards get it appended to
// their initiator's failover list.
func (tb *Testbed) AddSecondaryServer(cfg Config) *Secondary {
	idx := len(tb.Secondaries)
	mac := ServerMAC + 1 + ethernet.MAC(idx)
	name := fmt.Sprintf("server%d", idx+2)
	// Secondaries live in the hub domain alongside the primary.
	link := tb.connect(tb.K, name, mac)
	n := nic.New(tb.K, name+".eth0", nic.IntelX540, mac, link)
	s := vblade.NewServer(tb.K, n, cfg.ServerThreads)
	s.Instrument(tb.Metrics, tb.Trace, name)
	s.AddTarget(0, 0, tb.Image)
	s.Start()
	sec := &Secondary{Server: s, NIC: n, MAC: mac, Link: link}
	tb.Secondaries = append(tb.Secondaries, sec)
	return sec
}

// AddNode assembles a new instance machine attached to the switch and IB
// fabric. NIC 0 is the guest's; NIC 1 is dedicated to the VMM.
func (tb *Testbed) AddNode(cfg Config) *Node {
	idx := len(tb.Nodes)
	mcfg := machine.RX200S6(fmt.Sprintf("node%d", idx))
	mcfg.Storage = cfg.Storage
	if cfg.DiskSectors > 0 {
		mcfg.Disk.Sectors = cfg.DiskSectors
	}
	nk := tb.K
	lane := tb.Trace
	if tb.perNode {
		// Each node is its own shard domain with its own trace lane; the
		// lane's span-ID base is derived from the fixed node index so IDs
		// stay globally unique without cross-domain coordination.
		nk = tb.Set.NewDomain(mcfg.Name)
		if tb.Trace != nil {
			lane = trace.NewRecorder(nk)
			lane.SetIDBase(int64(idx+1) << 40)
		}
		tb.nodeLanes = append(tb.nodeLanes, lane)
	}
	m := machine.New(nk, mcfg)
	m.Trace = lane
	m.Metrics = tb.Metrics
	base := ethernet.MAC(0x0200_0000_0000) + ethernet.MAC(idx)*0x10
	l0 := tb.connect(nk, m.Name+".guest", base)
	l1 := tb.connect(nk, m.Name+".vmm", base+1)
	m.AttachNIC(nic.IntelPro1000, base, l0)
	m.AttachNIC(nic.IntelPro1000, base+1, l1)
	if tb.IB != nil {
		m.AttachIB(tb.IB)
	}
	n := &Node{M: m, OS: guest.NewOS("ubuntu", m), GuestLink: l0, VMMLink: l1}
	tb.Nodes = append(tb.Nodes, n)
	return n
}

// NewFaultInjector returns a fault injector with the testbed's links and
// servers registered under canonical names: "server" for the primary
// vblade (both its link and the server itself), "server2", "server3", …
// for secondaries, and "node<i>.guest" / "node<i>.vmm" for each node's
// links. Assemble the cluster first; targets added later are not seen.
func (tb *Testbed) NewFaultInjector() *faults.Injector {
	inj := faults.NewInjector(tb.K)
	inj.Instrument(tb.Metrics, tb.Trace)
	inj.RegisterLink("server", tb.ServerLink)
	inj.RegisterServer("server", tb.Server)
	for i, sec := range tb.Secondaries {
		name := fmt.Sprintf("server%d", i+2)
		inj.RegisterLink(name, sec.Link)
		inj.RegisterServer(name, sec.Server)
	}
	// Node links live on the node's domain: mutations are scheduled there,
	// and the hub keeps a carrier-state mirror for control-plane probes.
	for i, n := range tb.Nodes {
		inj.RegisterLinkOn(fmt.Sprintf("node%d.guest", i), n.GuestLink, n.M.K)
		inj.RegisterLinkOn(fmt.Sprintf("node%d.vmm", i), n.VMMLink, n.M.K)
	}
	inj.SetObserver(tb.noteFault)
	return inj
}

// Links returns every link attached to the switch, for fault injection.
func (tb *Testbed) Links() []*ethernet.Link {
	out := make([]*ethernet.Link, len(tb.links))
	copy(out, tb.links)
	return out
}

// BMcastResult summarizes one BMcast deployment.
type BMcastResult struct {
	FirmwareDone sim.Time // firmware initialization complete
	VMMBooted    sim.Time
	GuestBooted  sim.Time
	Deployed     sim.Time // background copy complete
	BareMetal    sim.Time // de-virtualization complete

	// Trace is the testbed's trace recorder (nil unless Config.EnableTrace),
	// here so assertions about phase ordering/containment travel with the
	// result.
	Trace *trace.Recorder
}

// DeployBMcast runs the full BMcast path on node n: firmware, VMM network
// boot, guest boot under mediation, streaming deployment in the
// background. It returns when the guest has booted; the deployment
// continues in the background (use WaitBareMetal).
func (tb *Testbed) DeployBMcast(p *sim.Proc, n *Node, vcfg core.Config, bp guest.BootProfile) (*BMcastResult, error) {
	res := &BMcastResult{Trace: tb.Trace}
	n.M.Firmware.PowerOn(p, 0) // firmware runs once; VMM loads via network
	res.FirmwareDone = p.Now()
	vmm, err := core.Boot(p, n.M, vcfg, 1, ServerMAC, 0, 0, tb.Image.Sectors)
	if err != nil {
		return nil, err
	}
	n.VMM = vmm
	for _, sec := range tb.Secondaries {
		vmm.Initiator().AddTarget(sec.MAC, 0, 0)
	}
	res.VMMBooted = p.Now()
	// The guest boots inside the Deployment phase; the phase span roots
	// the guest's boot span (and everything the boot's I/O causes).
	if err := n.OS.Boot(p, vmm.PhaseSpan(), bp); err != nil {
		return nil, err
	}
	res.GuestBooted = p.Now()
	return res, nil
}

// WaitBareMetal blocks until node n's VMM has de-virtualized, filling in
// the result's deployment timestamps.
func (tb *Testbed) WaitBareMetal(p *sim.Proc, n *Node, res *BMcastResult) {
	n.VMM.WaitPhase(p, core.PhaseBareMetal)
	res.Deployed = n.VMM.DeployedAt
	res.BareMetal = n.VMM.DevirtedAt
}

// BootBareMetal boots node n from a pre-deployed local disk — the paper's
// bare-metal baseline.
func (tb *Testbed) BootBareMetal(p *sim.Proc, n *Node, bp guest.BootProfile) error {
	n.M.SetDiskImage(tb.Image)
	n.M.Firmware.PowerOn(p, 0)
	return n.OS.Boot(p, nil, bp)
}

// VerifyDeployment checks that node n's local disk is byte-equivalent to
// the server image except where the guest wrote: every sector's content
// source must be either the image or a guest-attributed source. It
// returns the per-source sector counts for reporting.
func (tb *Testbed) VerifyDeployment(n *Node) (map[string]int64, error) {
	counts := n.M.Disk.Store().CountBySource()
	image := n.VMM.Bitmap().Sectors()
	var covered int64
	for name, c := range counts {
		if name == "zero" {
			continue
		}
		covered += c
	}
	if covered < image {
		return counts, fmt.Errorf("testbed: only %d of %d image sectors have content", covered, image)
	}
	return counts, nil
}
