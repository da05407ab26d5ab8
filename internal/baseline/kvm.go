package baseline

import (
	"fmt"

	"repro/internal/cpuvirt"
	"repro/internal/guest"
	"repro/internal/hw/disk"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// KVMStorage selects the KVM guest's storage backend.
type KVMStorage int

// KVM storage backends from the paper's figures.
const (
	KVMLocal KVMStorage = iota // virtio-blk over the local disk
	KVMNFS                     // virtio over an NFS-held image
	KVMISCSI                   // virtio over an iSCSI-held image
)

func (s KVMStorage) String() string {
	switch s {
	case KVMLocal:
		return "local"
	case KVMNFS:
		return "nfs"
	default:
		return "iscsi"
	}
}

// KVMConfig captures the baseline's tuning, which follows the paper's
// setup: ELI exit-less interrupts, vCPU pinning, 2 GB huge pages.
type KVMConfig struct {
	// HostBootTime is KVM/host boot (30 s measured in §5.1).
	HostBootTime sim.Duration
	// MemPenalty is the slowdown of memory-bound guest work: nested
	// paging plus cache pollution from the VMM and host OS (§5.5.1:
	// +35% on the memory benchmark even with huge pages).
	MemPenalty float64
	// CPUTax is host housekeeping CPU share.
	CPUTax float64
	// LHPProb/LHPStall model the lock-holder preemption problem at full
	// thread load (§5.5.1: +68% at 24 threads).
	LHPProb  float64
	LHPStall sim.Duration
	// IRQLatency is the per-interrupt/IOMMU cost on assigned devices
	// (ELI removes exits, the IOMMU remains: +23.6% IB latency, §5.5.3).
	IRQLatency sim.Duration
	// VirtioPerReq is the virtio-blk per-request cost (vmexit-driven
	// kick, host block layer).
	VirtioPerReq sim.Duration
	// VirtioRateFactor scales storage bandwidth through the paravirtual
	// path (Fig 10: −10.5% read / −13.6% write on the local disk).
	VirtioReadFactor  float64
	VirtioWriteFactor float64
	// SchedJitter is host scheduling/timer noise added to
	// latency-sensitive steps (drives the MPI collective overheads).
	SchedJitter sim.Duration
	// NetPathLatency is the virtio/vhost per-hop latency on the guest
	// network path (drives the database request-latency overhead).
	NetPathLatency sim.Duration
	// IBExtraLatency is the per-side IOMMU/interrupt cost on the
	// directly assigned InfiniBand HCA (+23.6% RDMA latency, §5.5.3).
	IBExtraLatency sim.Duration
}

// DefaultKVMConfig returns the calibrated baseline.
func DefaultKVMConfig() KVMConfig {
	return KVMConfig{
		HostBootTime:      30 * sim.Second,
		MemPenalty:        0.42,
		CPUTax:            0.01,
		LHPProb:           5e-5,
		LHPStall:          1500 * sim.Microsecond,
		IRQLatency:        1200 * sim.Nanosecond,
		VirtioPerReq:      120 * sim.Microsecond,
		VirtioReadFactor:  0.895,
		VirtioWriteFactor: 0.864,
		SchedJitter:       1500 * sim.Nanosecond,
		NetPathLatency:    20 * sim.Microsecond,
		IBExtraLatency:    2600 * sim.Nanosecond,
	}
}

// KVM is a running KVM instance on one machine.
type KVM struct {
	Cfg     KVMConfig
	M       *machine.Machine
	OS      *guest.OS
	Storage KVMStorage
	remote  *RemoteStore

	BootedAt      sim.Time // host + VMM ready
	GuestBootedAt sim.Time
}

// StartKVM boots the KVM host on machine m and prepares a guest with a
// virtio storage driver over the chosen backend. For KVMLocal the local
// disk must already hold the image.
func StartKVM(p *sim.Proc, m *machine.Machine, cfg KVMConfig, storage KVMStorage, remote *RemoteStore) (*KVM, error) {
	if storage != KVMLocal && remote == nil {
		return nil, fmt.Errorf("baseline: %v storage needs a remote store", storage)
	}
	kvm := &KVM{Cfg: cfg, M: m, Storage: storage, remote: remote}
	m.Firmware.PowerOn(p, 0)
	p.Sleep(cfg.HostBootTime)
	m.World.EnterVMX()
	m.World.Overheads = cpuvirt.Overheads{
		MemPenalty:     cfg.MemPenalty,
		CPUTaxStatic:   cfg.CPUTax,
		LHPProb:        cfg.LHPProb,
		LHPStall:       cfg.LHPStall,
		IRQLatency:     cfg.IRQLatency,
		SchedJitter:    cfg.SchedJitter,
		NetPathLatency: cfg.NetPathLatency,
	}
	if m.IB != nil {
		m.IB.ExtraLatency = cfg.IBExtraLatency // direct assignment still pays the IOMMU
	}
	kvm.OS = guest.NewOS("ubuntu", m)
	kvm.OS.SetDriver(&VirtioDriver{kvm: kvm})
	kvm.BootedAt = p.Now()
	return kvm, nil
}

// BootGuest boots the guest OS through virtio.
func (kvm *KVM) BootGuest(p *sim.Proc, bp guest.BootProfile) error {
	if err := kvm.OS.Boot(p, nil, bp); err != nil {
		return err
	}
	kvm.GuestBootedAt = p.Now()
	return nil
}

// VirtioDriver is the guest's virtio-blk front end: requests go to the
// host's block layer (a vmexit-driven kick per request) instead of real
// controller registers; the host serves them from the local disk or the
// remote store.
type VirtioDriver struct {
	kvm  *KVM
	free []*virtioReq // pooled request records
}

// Name implements guest.BlockDriver.
func (d *VirtioDriver) Name() string { return "virtio-blk/" + d.kvm.Storage.String() }

// Init implements guest.BlockDriver.
func (d *VirtioDriver) Init(p *sim.Proc, _ *trace.Span) error {
	p.Sleep(2 * sim.Millisecond) // virtio feature negotiation
	return nil
}

// Submit implements guest.BlockDriver: the paravirtual path cost (the
// kick hypercall exit plus host-side processing), then the backend
// access stretched by the virtio bandwidth factor. A flush costs the
// kick and the host's flush.
func (d *VirtioDriver) Submit(r *guest.Request) {
	if r.Op != guest.OpFlush && (r.LBA < 0 || r.Count <= 0 || r.Count > guest.MaxTransferSectors) {
		kind := "read"
		if r.Op == guest.OpWrite {
			kind = "write"
		}
		r.Complete(nil, fmt.Errorf("baseline: invalid virtio %s [%d,+%d)", kind, r.LBA, r.Count))
		return
	}
	var v *virtioReq
	if n := len(d.free) - 1; n >= 0 {
		v = d.free[n]
		d.free = d.free[:n]
	} else {
		v = &virtioReq{d: d}
		v.stepFn = v.step
		v.diskFn = v.diskDone
		v.remoteFn = v.remoteDone
	}
	v.req, v.pc = r, virtioKick
	v.step()
}

// virtioStep is where a virtio request's step function resumes.
type virtioStep uint8

const (
	virtioKick    virtioStep = iota // charge the kick's exit
	virtioHost                      // the exit is over: host processing
	virtioBackend                   // host processing is over: the backend access
	virtioDone                      // complete the request
)

// virtioReq is one virtio request in flight. It runs as kernel
// callbacks: the exit, the host processing, the backend access and the
// bandwidth stretch each take the (when, seq) slot the blocked process's
// wakeup used to take. Records are pooled per driver and their steps
// bound once.
type virtioReq struct {
	d        *VirtioDriver
	req      *guest.Request
	pc       virtioStep
	start    sim.Time
	pl       disk.Payload
	stepFn   func()
	diskFn   func(disk.Payload)
	remoteFn func(disk.Payload, error)
}

// step moves the request on until it waits or completes.
func (v *virtioReq) step() {
	kvm, r := v.d.kvm, v.req
	k := kvm.M.K
	switch v.pc {
	case virtioKick:
		v.pc = virtioHost
		k.After(kvm.M.World.Charge(cpuvirt.ExitHypercall), v.stepFn)
	case virtioHost:
		v.pc = virtioBackend
		if r.Op == guest.OpFlush {
			v.pc = virtioDone
			k.After(500*sim.Microsecond, v.stepFn)
			return
		}
		k.After(kvm.Cfg.VirtioPerReq, v.stepFn)
	case virtioBackend:
		write := r.Op == guest.OpWrite
		if kvm.Storage != KVMLocal {
			kvm.remote.start(write, disk.Payload{LBA: r.LBA, Count: r.Count, Source: r.Source}, v.remoteFn)
			return
		}
		// The host block layer serves the request; the virtio path
		// stretches effective service time.
		v.start = k.Now()
		kvm.M.Disk.Start(r.LBA, r.Count, write, r.Source, v.diskFn)
	case virtioDone:
		v.complete(nil)
	}
}

// diskDone stretches the local disk's service time by the virtio
// bandwidth factor.
func (v *virtioReq) diskDone(pl disk.Payload) {
	kvm := v.d.kvm
	factor := kvm.Cfg.VirtioReadFactor
	if v.req.Op == guest.OpWrite {
		factor = kvm.Cfg.VirtioWriteFactor
	}
	service := kvm.M.K.Now().Sub(v.start)
	v.pl, v.pc = pl, virtioDone
	kvm.M.K.After(sim.Duration(float64(service)*(1/factor-1)), v.stepFn)
}

// remoteDone takes the remote store's outcome.
func (v *virtioReq) remoteDone(pl disk.Payload, err error) {
	v.pl = pl
	v.complete(err)
}

// complete hands the request its outcome and continues its issuer.
func (v *virtioReq) complete(err error) {
	r := v.req
	var data []byte
	if err == nil && r.Op == guest.OpRead && !r.Discard {
		data = v.pl.Bytes()
	}
	v.req, v.pl = nil, disk.Payload{}
	v.d.free = append(v.d.free, v)
	r.Complete(data, err)
}

var _ guest.BlockDriver = (*VirtioDriver)(nil)
