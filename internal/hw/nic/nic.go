// Package nic models Ethernet network interface controllers.
//
// BMcast dedicates one NIC to the VMM for streaming deployment and drives
// it with a small polling driver (the paper's PRO/1000, X540, RTL816x and
// NetXtreme drivers are 600–760 LOC each precisely because they only need
// polled send/receive). This package provides that device: MAC filtering,
// an rx queue for polled receive, an optional receive callback for
// interrupt-style delivery, and counters.
package nic

import (
	"repro/internal/ethernet"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Model identifies the NIC hardware type, mirroring the drivers the paper
// implements. All models share behaviour; the name feeds reports.
type Model string

// NIC models supported by the paper's VMM drivers.
const (
	IntelPro1000     Model = "Intel PRO/1000"
	IntelX540        Model = "Intel X540"
	RealtekRTL816x   Model = "Realtek RTL816x"
	BroadcomNetXtrem Model = "Broadcom NetXtreme"
)

// NIC is a network interface attached to a link.
type NIC struct {
	Name  string
	Model Model
	MAC   ethernet.MAC

	k    *sim.Kernel
	link *ethernet.Link

	rx        *sim.Queue[*ethernet.Frame]
	onReceive func(*ethernet.Frame)
	onArrival func()

	// Promiscuous disables destination MAC filtering.
	Promiscuous bool

	TxFrames metrics.Counter
	RxFrames metrics.Counter
	TxBytes  metrics.Counter
	RxBytes  metrics.Counter
	Filtered metrics.Counter
}

// New creates a NIC with the given address attached to the station side of
// link.
func New(k *sim.Kernel, name string, model Model, mac ethernet.MAC, link *ethernet.Link) *NIC {
	n := &NIC{
		Name:  name,
		Model: model,
		MAC:   mac,
		k:     k,
		link:  link,
		rx:    sim.NewQueue[*ethernet.Frame](k, name+".rx"),
	}
	link.AttachA(n)
	return n
}

// Deliver implements ethernet.Port: frames arriving from the link. The
// frame reference passes to the receive callback or the rx queue consumer;
// filtered frames are released here.
func (n *NIC) Deliver(f *ethernet.Frame) {
	if !n.Promiscuous && f.Dst != n.MAC && f.Dst != ethernet.Broadcast {
		n.Filtered.Inc()
		f.Release()
		return
	}
	n.RxFrames.Inc()
	n.RxBytes.Add(f.Size)
	if n.onReceive != nil {
		n.onReceive(f)
		return
	}
	n.rx.Push(f)
	if n.onArrival != nil {
		n.onArrival()
	}
}

// Send transmits a frame. Src is stamped with the NIC's MAC.
func (n *NIC) Send(f *ethernet.Frame) {
	f.Src = n.MAC
	n.TxFrames.Inc()
	n.TxBytes.Add(f.Size)
	n.link.SendFromA(f)
}

// MTU reports the attached link's MTU.
func (n *NIC) MTU() int64 { return n.link.MTU() }

// SetOnReceive installs a delivery callback, bypassing the rx queue. Pass
// nil to return to queued (polled) receive.
func (n *NIC) SetOnReceive(fn func(*ethernet.Frame)) { n.onReceive = fn }

// SetOnArrival installs a hook that runs after each frame is queued on the
// rx queue (polled receive); the frame stays queued. Pass nil to remove it.
func (n *NIC) SetOnArrival(fn func()) { n.onArrival = fn }

// Recv blocks the process until a frame arrives (polled driver model).
func (n *NIC) Recv(p *sim.Proc) *ethernet.Frame {
	f, _ := n.rx.Pop(p)
	return f
}

// TryRecv returns a queued frame without blocking.
func (n *NIC) TryRecv() (*ethernet.Frame, bool) { return n.rx.TryPop() }

// RxPending reports the number of queued received frames.
func (n *NIC) RxPending() int { return n.rx.Len() }
