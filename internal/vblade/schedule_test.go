package vblade_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/aoe"
	"repro/internal/ethernet"
	"repro/internal/hw/disk"
	"repro/internal/hw/nic"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vblade"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// responseTap sits between the server NIC and its switch link and logs
// every response frame the server sends. Its own link to the server has
// no serialization or propagation delay, so a logged time is the
// simulated instant the server sent the frame.
type responseTap struct {
	k        *sim.Kernel
	toServer *ethernet.Link // tap is the B side; the server NIC is A
	toSwitch *ethernet.Link // tap is the A side; the switch is B
	log      *bytes.Buffer
}

func (tp *responseTap) Deliver(f *ethernet.Frame) {
	if f.Src == 0x01 { // from the server: log and forward to the switch
		if m, ok := f.Payload.(*aoe.Message); ok {
			fmt.Fprintf(tp.log, "%d dst=%d tag=%#x flags=%#x err=%d lba=%d count=%d\n",
				tp.k.Now(), f.Dst, m.Tag, m.Flags, m.Error, m.LBA, m.Count)
		}
		tp.toSwitch.SendFromA(f)
		return
	}
	tp.toServer.SendFromB(f)
}

// scheduleRun drives a fixed scenario through a cached four-thread server
// and returns its schedule: every response with its send time, the
// clients' outcomes, the serve spans and cache events, and the server's
// counters. The scenario has three initiators, reads coalesced onto an
// in-flight fill, a write that invalidates an in-flight fill, and a crash
// and restart while a fill is in flight.
func scheduleRun(t *testing.T) string {
	t.Helper()
	k := sim.New(11)
	sw := ethernet.NewSwitch(k, "sw", 5*sim.Microsecond)
	var log bytes.Buffer
	tap := &responseTap{
		k:        k,
		toServer: ethernet.NewLink(k, ethernet.LinkParams{Bandwidth: 1e30, MTU: 9018}),
		toSwitch: sw.Connect(ethernet.GigabitJumbo(), 0x01),
		log:      &log,
	}
	tap.toServer.AttachB(tap)
	tap.toSwitch.AttachA(tap)
	servNIC := nic.New(k, "sv0", nic.IntelX540, 0x01, tap.toServer)
	srv := vblade.NewServer(k, servNIC, 4)
	img := disk.NewSynthImage("ubuntu", 8<<20, 7)
	srv.AddTarget(0, 0, img)
	tr := trace.NewRecorder(k)
	srv.Instrument(metrics.NewRegistry(), tr, "server")
	srv.EnableCache(6*cacheExtentSectors*disk.SectorSize, cacheExtentSectors)
	srv.ColdReadRate = 2e7 // one 32 KB extent fill takes ~1.6 ms
	srv.Start()

	inits := make([]*aoe.Initiator, 3)
	for i := range inits {
		mac := ethernet.MAC(0x10 + i)
		cl := nic.New(k, fmt.Sprintf("cl%d", i), nic.IntelPro1000, mac, sw.Connect(ethernet.GigabitJumbo(), mac))
		inits[i] = aoe.NewInitiator(k, cl, 0x01, 0, 0)
	}
	outcome := func(c int, op string, lba, count int64, err error) {
		fmt.Fprintf(&log, "client%d %s lba=%d count=%d done=%d err=%v\n", c, op, lba, count, k.Now(), err)
	}
	read := func(p *sim.Proc, c int, lba, count int64) {
		_, err := inits[c].Read(p, lba, count)
		outcome(c, "read", lba, count, err)
	}
	// Clients 0 and 1 read the same extents at once: the second coalesces
	// onto the first's fills. Client 0 then scans past the cache budget.
	k.Spawn("client0", func(p *sim.Proc) {
		read(p, 0, 0, 2*cacheExtentSectors)
		read(p, 0, 0, cacheExtentSectors)
		for i := int64(2); i < 12; i++ {
			read(p, 0, i*cacheExtentSectors, cacheExtentSectors)
		}
	})
	k.Spawn("client1", func(p *sim.Proc) {
		read(p, 1, 0, 2*cacheExtentSectors)
		p.SleepUntil(sim.Time(8 * sim.Millisecond))
		read(p, 1, 8*cacheExtentSectors, 16)
		read(p, 1, 3*cacheExtentSectors, 2*cacheExtentSectors)
	})
	// Client 2 writes into extent 8 while client 1's fill of it is in
	// flight, then reads it back.
	k.Spawn("client2", func(p *sim.Proc) {
		p.SleepUntil(sim.Time(8500 * sim.Microsecond))
		src := disk.Synth{Seed: 3}
		err := inits[2].Write(p, disk.Payload{LBA: 8*cacheExtentSectors + 8, Count: 8, Source: src})
		outcome(2, "write", 8*cacheExtentSectors+8, 8, err)
		read(p, 2, 8*cacheExtentSectors, cacheExtentSectors)
		p.Sleep(10 * sim.Millisecond)
		for i := int64(20); i < 26; i++ {
			read(p, 2, i*cacheExtentSectors, cacheExtentSectors/2)
		}
	})
	// Crash while client 0's scan is filling with three fragments
	// coalesced onto the fill, and restart 15 ms later.
	k.After(17*sim.Millisecond, func() { srv.Crash() })
	k.After(32*sim.Millisecond, func() { srv.Restart() })
	k.Run()

	for _, sp := range tr.Spans() {
		fmt.Fprintf(&log, "span %s %d-%d %v\n", sp.Name, sp.Start, sp.Stop, sp.Args)
	}
	for _, ev := range tr.EventsInCat("vblade") {
		fmt.Fprintf(&log, "event %d %s %v\n", ev.Time, ev.Name, ev.Args)
	}
	fmt.Fprintf(&log, "requests=%d served=%d stored=%d write_errors=%d unknown=%d media=%d crashes=%d\n",
		srv.Requests.Value(), srv.BytesServed.Value(), srv.BytesStored.Value(), srv.WriteErrors.Value(),
		srv.UnknownDrops.Value(), srv.MediaErrors.Value(), srv.Crashes.Value())
	fmt.Fprintf(&log, "hits=%d misses=%d evictions=%d coalesced=%d queue=%d end=%d\n",
		srv.CacheHits.Value(), srv.CacheMisses.Value(), srv.CacheEvictions.Value(),
		srv.CoalescedReads.Value(), srv.QueueDepth(), k.Now())
	return log.String()
}

// TestServeScheduleGolden pins the server's event schedule: the send time
// and content of every response, every client outcome, every serve span
// and cache event, and the final counters must match the recorded golden
// byte for byte. Regenerate with -update only for an intended change of
// the modelled behaviour.
func TestServeScheduleGolden(t *testing.T) {
	got := scheduleRun(t)
	path := filepath.Join("testdata", "serve_schedule.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := bytes.Split([]byte(got), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("schedule differs from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("schedule differs from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
