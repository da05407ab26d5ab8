package disk

import (
	"bytes"
	"testing"

	"repro/internal/hw/mem"
	"repro/internal/sim"
)

func testParams() Params {
	p := Constellation2()
	p.Sectors = 1 << 20 // keep test disks small
	return p
}

func TestSequentialFasterThanRandom(t *testing.T) {
	k := sim.New(1)
	d := NewDevice(k, "sda", testParams())
	seqT, randT := sim.Duration(0), sim.Duration(0)
	k.Spawn("seq", func(p *sim.Proc) {
		start := p.Now()
		for i := int64(0); i < 10; i++ {
			d.Read(p, i*128, 128) // back-to-back sequential
		}
		seqT = p.Now().Sub(start)
	})
	k.Run()

	k2 := sim.New(1)
	d2 := NewDevice(k2, "sdb", testParams())
	k2.Spawn("rand", func(p *sim.Proc) {
		start := p.Now()
		for i := int64(0); i < 10; i++ {
			d2.Read(p, (i*379+7)*1024%d2.Sectors, 128)
		}
		randT = p.Now().Sub(start)
	})
	k2.Run()
	if seqT >= randT {
		t.Fatalf("sequential %v not faster than random %v", seqT, randT)
	}
}

func TestSequentialThroughputNearMediaRate(t *testing.T) {
	k := sim.New(1)
	d := NewDevice(k, "sda", testParams())
	const total = 200 << 20 // 200 MB, as fio in the paper
	const block = 1 << 20
	var elapsed sim.Duration
	k.Spawn("fio", func(p *sim.Proc) {
		start := p.Now()
		for off := int64(0); off < total; off += block {
			d.Read(p, off/SectorSize, block/SectorSize)
		}
		elapsed = p.Now().Sub(start)
	})
	k.Run()
	rate := float64(total) / elapsed.Seconds()
	if rate < 110e6 || rate > 120e6 {
		t.Fatalf("sequential read rate = %.1f MB/s, want ~116.6", rate/1e6)
	}
}

func TestWriteSlowerThanRead(t *testing.T) {
	p := testParams()
	k := sim.New(1)
	d := NewDevice(k, "sda", p)
	rt := d.ServiceTime(0, 2048, false)
	wt := d.ServiceTime(0, 2048, true)
	if wt <= rt {
		t.Fatalf("write %v not slower than read %v", wt, rt)
	}
}

func TestCacheHit(t *testing.T) {
	k := sim.New(1)
	d := NewDevice(k, "sda", testParams())
	k.Spawn("p", func(p *sim.Proc) {
		d.Read(p, 1000, 8)
		d.Read(p, 5000, 8) // move the head away
		before := p.Now()
		d.Read(p, 1000, 8) // same range again: drive cache hit
		if got := p.Now().Sub(before); got != d.CacheHit {
			t.Errorf("cached read took %v, want %v", got, d.CacheHit)
		}
	})
	k.Run()
	if d.CacheHits.Value() != 1 {
		t.Fatalf("CacheHits = %d, want 1", d.CacheHits.Value())
	}
}

func TestArmSerializesRequests(t *testing.T) {
	k := sim.New(1)
	d := NewDevice(k, "sda", testParams())
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("rw", func(p *sim.Proc) {
			d.Read(p, int64(i)*100000, 256)
			ends = append(ends, p.Now())
		})
	}
	k.Run()
	for i := 1; i < len(ends); i++ {
		if ends[i] <= ends[i-1] {
			t.Fatalf("overlapping service completions: %v", ends)
		}
	}
}

func TestReadWriteContent(t *testing.T) {
	k := sim.New(1)
	d := NewDevice(k, "sda", testParams())
	data := bytes.Repeat([]byte{0x5A}, 4*SectorSize)
	k.Spawn("p", func(p *sim.Proc) {
		d.Write(p, 100, 4, NewBuffer(100, data, "w"))
		got := d.Read(p, 100, 4).Bytes()
		if !bytes.Equal(got, data) {
			t.Error("device read-back mismatch")
		}
	})
	k.Run()
	if d.BytesWritten.Value() != 4*SectorSize || d.BytesRead.Value() != 4*SectorSize {
		t.Fatalf("stats: read=%d written=%d", d.BytesRead.Value(), d.BytesWritten.Value())
	}
}

func TestDMAHints(t *testing.T) {
	d := NewDevice(sim.New(1), "sda", testParams())
	src := Synth{Seed: 1}
	d.SetNextDMA(0x1000, src, true)
	got, discard, armed := d.TakeDMAHint(0x1000)
	if !armed || !discard || got != SectorSource(src) {
		t.Fatal("hint round trip failed")
	}
	if _, _, armed := d.TakeDMAHint(0x1000); armed {
		t.Fatal("hint not consumed")
	}
}

// TestDMA drives the controller data phase through a two-region
// scatter-gather list: a literal write gathers from guest memory, a read
// scatters back, a discard hint leaves memory alone, and a refused range
// still consumes its hint and never completes.
func TestDMA(t *testing.T) {
	k := sim.New(1)
	d := NewDevice(k, "sda", testParams())
	m := mem.New(1 << 20)
	sg := []mem.Region{{Start: 0x3000, Size: SectorSize}, {Start: 0x1000, Size: 2 * SectorSize}}
	data := make([]byte, 3*SectorSize)
	for i := range data {
		data[i] = byte(i / 7)
	}
	m.Scatter(sg, data)
	completed := 0
	done := func() { completed++ }
	// dma runs one command to its completion.
	dma := func(lba, count int64, write bool) bool {
		before := completed
		ok := d.DMA(m, sg, lba, count, write, "ctl.dma", done)
		k.Run()
		want := before
		if ok {
			want++
		}
		if completed != want {
			t.Fatalf("DMA(%d, %d, %v) = %v ran done %d times", lba, count, write, ok, completed-before)
		}
		return ok
	}
	if !dma(40, 3, true) {
		t.Fatal("in-range write refused")
	}
	if name := d.Store().SourceAt(41).Name(); name != "ctl.dma" {
		t.Errorf("gathered write source = %q, want ctl.dma", name)
	}
	m.Scatter(sg, make([]byte, len(data)))
	dma(40, 3, false)
	if got := m.Gather(nil, sg, int64(len(data))); !bytes.Equal(got, data) {
		t.Error("read did not scatter the written bytes back")
	}
	m.Scatter(sg, make([]byte, len(data)))
	d.SetNextDMA(sg[0].Start, nil, true)
	dma(40, 3, false)
	if got := m.Gather(nil, sg, int64(len(data))); !bytes.Equal(got, make([]byte, len(data))) {
		t.Error("discarded read wrote guest memory")
	}
	d.SetNextDMA(sg[0].Start, Zero, false)
	if dma(d.Sectors-1, 2, true) {
		t.Error("write past the end of the drive accepted")
	}
	if _, _, armed := d.TakeDMAHint(sg[0].Start); armed {
		t.Error("refused command left its hint armed")
	}
}

func TestAlternatingRegionsIncurSeeks(t *testing.T) {
	// The Fig-14 effect: two writers at distant LBAs force a seek per
	// access, so total throughput drops below one sequential stream.
	k := sim.New(1)
	d := NewDevice(k, "sda", testParams())
	var altT sim.Duration
	k.Spawn("alt", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 20; i++ {
			lba := int64(0)
			if i%2 == 1 {
				lba = d.Sectors / 2
			}
			d.Write(p, lba+int64(i/2)*2048, 2048, Synth{Seed: 1})
		}
		altT = p.Now().Sub(start)
	})
	k.Run()

	k2 := sim.New(1)
	d2 := NewDevice(k2, "sdb", testParams())
	var seqT sim.Duration
	k2.Spawn("seq", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 20; i++ {
			d2.Write(p, int64(i)*2048, 2048, Synth{Seed: 1})
		}
		seqT = p.Now().Sub(start)
	})
	k2.Run()
	if altT <= seqT {
		t.Fatalf("alternating %v not slower than sequential %v", altT, seqT)
	}
	if d.Seeks.Value() <= d2.Seeks.Value() {
		t.Fatalf("seeks: alternating %d vs sequential %d", d.Seeks.Value(), d2.Seeks.Value())
	}
}

func TestImageAsSource(t *testing.T) {
	img := NewSynthImage("ubuntu", 1<<20, 42)
	if img.Size() != 1<<20 || img.Sectors != (1<<20)/SectorSize {
		t.Fatal("image geometry wrong")
	}
	a := make([]byte, SectorSize)
	b := make([]byte, SectorSize)
	img.Fill(7, a)
	img.Fill(7, b)
	if !bytes.Equal(a, b) {
		t.Fatal("synthetic image content not deterministic")
	}
	img.Fill(8, b)
	if bytes.Equal(a, b) {
		t.Fatal("different sectors produced identical content")
	}
}

func TestLiteralImage(t *testing.T) {
	data := []byte("kernel, initrd, rootfs bytes")
	img := NewLiteralImage("tiny", data)
	buf := make([]byte, SectorSize)
	img.ReadAt(0, buf)
	if !bytes.Equal(buf[:len(data)], data) {
		t.Fatal("literal image content mismatch")
	}
}

func TestBufferSourceOffsets(t *testing.T) {
	b := NewBuffer(10, []byte{1, 2, 3}, "b")
	buf := make([]byte, SectorSize)
	b.Fill(10, buf)
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Fatal("in-range fill wrong")
	}
	b.Fill(11, buf) // past the data: zeros
	if buf[0] != 0 {
		t.Fatal("out-of-data fill not zero")
	}
	b.Fill(9, buf) // one sector before base: zeros
	if buf[0] != 0 {
		t.Fatal("before-base fill not zero")
	}
}

func TestSynthDeterminism(t *testing.T) {
	s1, s2 := Synth{Seed: 5}, Synth{Seed: 5}
	a := make([]byte, 2*SectorSize)
	b := make([]byte, 2*SectorSize)
	s1.Fill(100, a)
	s2.Fill(100, b)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, different content")
	}
	s3 := Synth{Seed: 6}
	s3.Fill(100, b)
	if bytes.Equal(a, b) {
		t.Fatal("different seeds, same content")
	}
}

func TestSynthFillMatchesPerSectorFill(t *testing.T) {
	// Filling a range at once must equal filling sector by sector, so
	// payload content is independent of transfer chunking.
	s := Synth{Seed: 11}
	whole := make([]byte, 4*SectorSize)
	s.Fill(20, whole)
	for i := int64(0); i < 4; i++ {
		one := make([]byte, SectorSize)
		s.Fill(20+i, one)
		if !bytes.Equal(one, whole[i*SectorSize:(i+1)*SectorSize]) {
			t.Fatalf("sector %d differs between chunked and whole fill", 20+i)
		}
	}
}

func TestPayloadLen(t *testing.T) {
	p := Payload{LBA: 0, Count: 8, Source: Zero}
	if p.Len() != 8*SectorSize {
		t.Fatalf("Len = %d", p.Len())
	}
	if len(p.Bytes()) != 8*SectorSize {
		t.Fatalf("Bytes len = %d", len(p.Bytes()))
	}
}
