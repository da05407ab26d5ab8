package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// TestShutdownResumeDeployment reproduces §3.3's shutdown story end to
// end: stop a deployment partway, power off, reboot a fresh VMM, resume
// from the on-disk bitmap, and finish. The resumed copy must not refetch
// already-deployed blocks, and the final disk must verify.
func TestShutdownResumeDeployment(t *testing.T) {
	tcfg, vcfg, bp := smallConfig(machine.StorageAHCI)
	tcfg.ImageBytes = 256 << 20
	vcfg.WriteInterval = 50 * sim.Millisecond // slow copy: plenty of time to stop midway
	tb := testbed.New(tcfg)
	n := tb.AddNode(tcfg)
	n.M.Firmware.InitTime = sim.Second

	var filledAtShutdown int64
	var fetchedFirstRun int64
	done := false
	tb.K.Spawn("lifecycle", func(p *sim.Proc) {
		// First boot: deploy partway, then shut down.
		if _, err := tb.DeployBMcast(p, n, vcfg, bp); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(10 * sim.Second) // let the copy make progress
		filledAtShutdown = n.VMM.Bitmap().FilledCount()
		if filledAtShutdown == 0 || n.VMM.Bitmap().Complete() {
			t.Errorf("bad shutdown point: %d filled", filledAtShutdown)
			return
		}
		if err := n.VMM.Shutdown(p); err != nil {
			t.Error(err)
			return
		}
		fetchedFirstRun = n.VMM.FetchedBytes.Value()
		if n.M.IO.Tapped(n.M.StorageRegions[0]) {
			t.Error("storage still tapped after shutdown")
			return
		}

		// "Reboot": a fresh VMM instance on the same machine resumes.
		p.Sleep(30 * sim.Second) // machine off
		vmm2, err := core.Boot(p, n.M, vcfg, 1, testbed.ServerMAC, 0, 0, tb.Image.Sectors)
		if err != nil {
			t.Error(err)
			return
		}
		n.VMM = vmm2
		if err := vmm2.Resume(p); err != nil {
			t.Error(err)
			return
		}
		if got := vmm2.Bitmap().FilledCount(); got != filledAtShutdown {
			t.Errorf("resumed bitmap has %d filled, want %d", got, filledAtShutdown)
			return
		}
		if err := n.OS.Boot(p, nil, bp); err != nil {
			t.Error(err)
			return
		}
		vmm2.WaitPhase(p, core.PhaseBareMetal)
		done = true
	})
	tb.K.RunUntil(sim.Time(sim.Hour))
	if !done {
		t.Fatal("resumed deployment did not finish")
	}
	if _, err := tb.VerifyDeployment(n); err != nil {
		t.Fatal(err)
	}
	// The resumed run must have skipped already-deployed data: its fetch
	// volume plus the first run's must stay near one image's worth
	// (boot-trace redirects of already-filled blocks don't refetch).
	total := fetchedFirstRun + n.VMM.FetchedBytes.Value()
	imageBytes := tb.Image.Sectors * 512
	if total > imageBytes+imageBytes/4 {
		t.Fatalf("fetched %d bytes across both runs for a %d-byte image: resume refetched", total, imageBytes)
	}
}

// TestShutdownOutsideDeploymentFails guards the API contract.
func TestShutdownOutsideDeploymentFails(t *testing.T) {
	tb, n, _ := runDeployment(t, machine.StorageAHCI) // reaches bare metal
	tb.K.Spawn("x", func(p *sim.Proc) {
		if err := n.VMM.Shutdown(p); err == nil {
			t.Error("shutdown accepted in bare-metal phase")
		}
	})
	tb.K.Run()
}
