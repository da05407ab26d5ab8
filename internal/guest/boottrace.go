package guest

import (
	"math/rand"

	"repro/internal/hw/disk"
	"repro/internal/sim"
)

// BootOp is one step of the OS boot sequence: think for Think, then read
// Count sectors at LBA (Count == 0 means a pure compute step; Write marks
// the few log/state writes boot performs).
type BootOp struct {
	LBA   int64
	Count int64
	Write bool
	Think sim.Duration
}

// BootProfile describes the disk behaviour of an OS boot: how much is
// read, in what pattern, and how much CPU work happens between reads.
//
// The default profile is calibrated to the paper's measurements: an Ubuntu
// 14.04 boot reads ≈72 MB (§5.1: BMcast transferred 72 MB while booting)
// and takes 29 s on bare metal, where most of the time is CPU/service
// startup and the disk portion is seek-dominated small reads.
type BootProfile struct {
	TotalBytes  int64        // bytes read during boot
	ReadSectors int64        // sectors per read
	ClusterLen  int          // contiguous reads per cluster before seeking
	SpanSectors int64        // disk region boot reads are scattered over
	CPUTime     sim.Duration // total compute between reads
	WriteEvery  int          // a small write every N reads (0 = none)
	Seed        int64
}

// DefaultBootProfile returns the calibrated Ubuntu-14.04-like profile.
func DefaultBootProfile() BootProfile {
	return BootProfile{
		TotalBytes:  72 << 20,
		ReadSectors: 6, // 3 KB average reads (many small dependent reads)
		ClusterLen:  32,
		SpanSectors: (8 << 30) / disk.SectorSize, // first 8 GB of the image
		CPUTime:     23 * sim.Second,
		WriteEvery:  400,
		Seed:        1,
	}
}

// Trace returns the deterministic boot operation list: every op of the
// stream Ops draws.
func (bp BootProfile) Trace() []BootOp { return bp.Ops().collect() }

// TraceRand returns the boot operation list drawn from an injected rng:
// every op of the stream OpsRand draws.
func (bp BootProfile) TraceRand(rng *rand.Rand) []BootOp { return bp.OpsRand(rng).collect() }

// Ops returns the profile's boot op stream, seeded from the profile's
// own Seed. All randomness in the stream flows from that seed — never
// from the global math/rand source (enforced by bmcastlint's seededrand
// analyzer) — so a profile value fully determines its ops.
func (bp BootProfile) Ops() *BootOps { return bp.OpsRand(rand.New(rand.NewSource(bp.Seed))) }

// OpsRand returns the boot op stream drawing from an injected rng, for
// callers that derive the stream from the experiment seed (e.g.
// sim.Kernel.Rand or experiments.DeriveSeed) instead of the profile's
// embedded Seed. The op sequence is a pure function of the profile
// fields and the rng's draw sequence.
func (bp BootProfile) OpsRand(rng *rand.Rand) *BootOps {
	reads := max(int(bp.TotalBytes/(bp.ReadSectors*disk.SectorSize)), 1)
	return &BootOps{bp: bp, rng: rng, reads: reads, think: sim.Duration(int64(bp.CPUTime) / int64(reads))}
}

// BootOps draws a boot's operations one at a time, in order: reads in
// clusters of ClusterLen contiguous reads at seeded cluster bases, and a
// small write after every WriteEvery-th read. Boot walks the stream as
// it goes, so a boot holds one op rather than its whole trace.
type BootOps struct {
	bp          BootProfile
	rng         *rand.Rand
	reads, i    int // reads in all, reads drawn
	think       sim.Duration
	clusterBase int64
	write       bool // a write follows read i-1
}

// Next returns the next op, or false once the stream is exhausted.
func (g *BootOps) Next() (BootOp, bool) {
	bp := &g.bp
	if g.write {
		g.write = false
		// Boot-time log/state writes land just past the read span.
		lba := bp.SpanSectors + g.rng.Int63n(1<<10)*bp.ReadSectors
		return BootOp{LBA: lba, Count: bp.ReadSectors, Write: true}, true
	}
	if g.i == g.reads {
		return BootOp{}, false
	}
	i := g.i
	g.i++
	if i%bp.ClusterLen == 0 {
		limit := bp.SpanSectors - int64(bp.ClusterLen)*bp.ReadSectors
		g.clusterBase = g.rng.Int63n(limit/bp.ReadSectors) * bp.ReadSectors
	}
	g.write = bp.WriteEvery > 0 && i%bp.WriteEvery == bp.WriteEvery-1
	lba := g.clusterBase + int64(i%bp.ClusterLen)*bp.ReadSectors
	return BootOp{LBA: lba, Count: bp.ReadSectors, Think: g.think}, true
}

// collect drains the stream into a slice.
func (g *BootOps) collect() []BootOp {
	ops := make([]BootOp, 0, g.reads+g.reads/max(g.bp.WriteEvery, 1))
	for op, ok := g.Next(); ok; op, ok = g.Next() {
		ops = append(ops, op)
	}
	return ops
}
