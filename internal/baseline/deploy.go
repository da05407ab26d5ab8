package baseline

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/hw/disk"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ImageCopyResult records the stages of an image-copy deployment, matching
// the paper's Fig 4 breakdown (50 s installer boot + 320 s transfer +
// 145 s restart + 29 s OS boot for a 32 GB image on gigabit Ethernet).
type ImageCopyResult struct {
	FirmwareDone  sim.Time
	InstallerUp   sim.Time
	TransferDone  sim.Time
	RestartDone   sim.Time
	GuestBootedAt sim.Time
}

// ImageCopyConfig tunes the image-copy baseline.
type ImageCopyConfig struct {
	// InstallerBoot is the network boot of the installer OS (PXE + a
	// minimal ramdisk environment).
	InstallerBoot sim.Duration
	// ShutdownTime is the non-firmware part of the post-copy restart.
	ShutdownTime sim.Duration
	// CopyChunk is the streaming granularity of the image transfer.
	CopyChunk int64
}

// DefaultImageCopyConfig returns the calibrated baseline.
func DefaultImageCopyConfig() ImageCopyConfig {
	return ImageCopyConfig{
		InstallerBoot: 47 * sim.Second, // +3 s PXE = the paper's 50 s
		ShutdownTime:  12 * sim.Second,
		CopyChunk:     4 << 20,
	}
}

// DeployImageCopy performs the OS-transparent but slow baseline: network
// boot an installer, stream the whole image to the local disk, reboot
// from disk, boot the OS. The remote store provides the image (over
// iSCSI in the paper's measurement).
func DeployImageCopy(p *sim.Proc, m *machine.Machine, o *guest.OS, cfg ImageCopyConfig,
	remote *RemoteStore, bp guest.BootProfile) (*ImageCopyResult, error) {

	res := &ImageCopyResult{}
	m.Firmware.PowerOn(p, 1 /* network */)
	res.FirmwareDone = p.Now()
	p.Sleep(cfg.InstallerBoot - m.Firmware.PXETime)
	res.InstallerUp = p.Now()

	// Stream the image: a fetch loop and a disk-write loop connected by
	// a small queue, so network and disk overlap and the slower side
	// paces the pipeline. The installer writes the raw disk, as dd would.
	sectorsPerChunk := cfg.CopyChunk / disk.SectorSize
	q := sim.NewQueue[disk.Payload](m.K, m.Name+".imgcopy")
	writerDone := m.K.NewSignal(m.Name + ".imgcopy.done")
	var writerErr error
	finished := false
	m.K.Spawn(m.Name+".imgcopy.writer", func(wp *sim.Proc) {
		for {
			pl, ok := q.Pop(wp)
			if !ok {
				break
			}
			m.Disk.Write(wp, pl.LBA, pl.Count, pl.Source)
		}
		finished = true
		writerDone.Broadcast()
	})
	for lba := int64(0); lba < remote.Sectors(); lba += sectorsPerChunk {
		n := sectorsPerChunk
		if lba+n > remote.Sectors() {
			n = remote.Sectors() - lba
		}
		for q.Len() >= 4 {
			p.Sleep(10 * sim.Millisecond) // bounded pipeline depth
		}
		pl, err := remote.Read(p, lba, n)
		if err != nil {
			return nil, fmt.Errorf("baseline: image copy fetch: %w", err)
		}
		q.Push(pl)
	}
	q.Close()
	p.WaitCond(writerDone, func() bool { return finished })
	if writerErr != nil {
		return nil, writerErr
	}
	res.TransferDone = p.Now()

	// Reboot from the local disk: shutdown plus full firmware init.
	p.Sleep(cfg.ShutdownTime)
	m.Firmware.PowerOn(p, 0)
	res.RestartDone = p.Now()

	if err := o.Boot(p, nil, bp); err != nil {
		return nil, err
	}
	res.GuestBootedAt = p.Now()
	return res, nil
}

// NetbootDriver is the NFS-root block driver: every request goes to the
// remote store, forever — quick to start but with permanent network
// overhead (§2).
type NetbootDriver struct {
	remote *RemoteStore
	free   []*netbootReq // pooled request records
}

// NewNetbootDriver returns a driver serving all I/O from remote.
func NewNetbootDriver(remote *RemoteStore) *NetbootDriver {
	return &NetbootDriver{remote: remote}
}

// Name implements guest.BlockDriver.
func (d *NetbootDriver) Name() string { return "nfs-root" }

// Init implements guest.BlockDriver.
func (d *NetbootDriver) Init(p *sim.Proc, _ *trace.Span) error {
	p.Sleep(5 * sim.Millisecond) // mount
	return nil
}

// netbootReq is one request in flight on the remote store. Records are
// pooled per driver and their continuations bound once.
type netbootReq struct {
	d       *NetbootDriver
	req     *guest.Request
	doneFn  func(disk.Payload, error)
	flushFn func()
}

// Submit implements guest.BlockDriver: reads and writes are remote
// requests; a flush costs one request latency.
func (d *NetbootDriver) Submit(r *guest.Request) {
	var n *netbootReq
	if i := len(d.free) - 1; i >= 0 {
		n = d.free[i]
		d.free = d.free[:i]
	} else {
		n = &netbootReq{d: d}
		n.doneFn = n.done
		n.flushFn = n.flushed
	}
	n.req = r
	switch r.Op {
	case guest.OpFlush:
		d.remote.k.After(d.remote.ReqLatency, n.flushFn)
	case guest.OpWrite:
		d.remote.start(true, disk.Payload{LBA: r.LBA, Count: r.Count, Source: r.Source}, n.doneFn)
	default:
		d.remote.start(false, disk.Payload{LBA: r.LBA, Count: r.Count}, n.doneFn)
	}
}

func (n *netbootReq) flushed() { n.done(disk.Payload{}, nil) }

// done hands the request the remote store's outcome.
func (n *netbootReq) done(pl disk.Payload, err error) {
	r := n.req
	var data []byte
	if err == nil && r.Op == guest.OpRead && !r.Discard {
		data = pl.Bytes()
	}
	n.req = nil
	n.d.free = append(n.d.free, n)
	r.Complete(data, err)
}

// BootNetboot boots the OS with an NFS root: firmware network boot, then
// the boot trace served entirely from the remote store.
func BootNetboot(p *sim.Proc, m *machine.Machine, o *guest.OS, remote *RemoteStore, bp guest.BootProfile) error {
	m.Firmware.PowerOn(p, 1)
	o.SetDriver(NewNetbootDriver(remote))
	return o.Boot(p, nil, bp)
}

var _ guest.BlockDriver = (*NetbootDriver)(nil)
