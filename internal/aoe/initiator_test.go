package aoe

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/hw/disk"
	"repro/internal/sim"
)

// fakeTarget is a scripted stand-in for one vblade server: requests are
// answered after a fixed delay unless muted (swallowed silently) or failing
// (answered with an AoE error status).
type fakeTarget struct {
	mute bool
	fail bool
	// respond, when set, filters which fragment indices get answered.
	respond func(frag int) bool
	served  int
}

// fakeTransport routes initiator frames to scripted targets keyed by MAC,
// recording every send, so tests can drive loss/failover scenarios without
// a network stack.
type fakeTransport struct {
	k       *sim.Kernel
	targets map[ethernet.MAC]*fakeTarget
	onRecv  func(*ethernet.Frame)
	delay   sim.Duration

	sentTo   []ethernet.MAC
	sentFrag []int
	sentReq  []uint32
	sentAt   []sim.Time
}

func newFakeTransport(k *sim.Kernel) *fakeTransport {
	return &fakeTransport{k: k, targets: make(map[ethernet.MAC]*fakeTarget), delay: 100 * sim.Microsecond}
}

func (ft *fakeTransport) Send(f *ethernet.Frame) {
	msg := f.Payload.(*Message)
	reqID, frag := SplitTag(msg.Tag)
	ft.sentTo = append(ft.sentTo, f.Dst)
	ft.sentFrag = append(ft.sentFrag, frag)
	ft.sentReq = append(ft.sentReq, reqID)
	ft.sentAt = append(ft.sentAt, ft.k.Now())
	tgt := ft.targets[f.Dst]
	if tgt == nil || tgt.mute || (tgt.respond != nil && !tgt.respond(frag)) {
		return
	}
	tgt.served++
	resp := &Message{Header: msg.Header}
	resp.Flags |= FlagResponse
	if tgt.fail {
		resp.Flags |= FlagError
		resp.Error = 2
	} else if !msg.IsWrite() {
		resp.Payload = disk.Payload{LBA: int64(msg.LBA), Count: int64(msg.Count), Source: disk.Zero}
	}
	ft.k.After(ft.delay, func() {
		if ft.onRecv != nil {
			ft.onRecv(&ethernet.Frame{Src: f.Dst, EtherType: EtherType, Payload: resp,
				Size: ethernet.HeaderSize + resp.WireSize()})
		}
	})
}

func (ft *fakeTransport) MTU() int64                            { return 9018 }
func (ft *fakeTransport) SetOnReceive(fn func(*ethernet.Frame)) { ft.onRecv = fn }
func (ft *fakeTransport) SetOnArrival(func())                   {}
func (ft *fakeTransport) TryRecv() (*ethernet.Frame, bool)      { return nil, false }
func (ft *fakeTransport) RxPending() int                        { return 0 }

func TestBackoffResetsAfterProgress(t *testing.T) {
	// One early silence burst escalates the RTO; once a fragment arrives the
	// backoff must reset, so the next timeout fires quickly instead of being
	// pinned near the 2s cap for the rest of the request.
	k := sim.New(1)
	ft := newFakeTransport(k)
	tgt := &fakeTarget{mute: true}
	ft.targets[0x0A] = tgt
	in := NewInitiator(k, ft, 0x0A, 0, 0)
	in.MaxRetries = 40

	// t=600ms: after ~6 silent timeout rounds, answer fragment 0 only.
	var frag0ServedAt sim.Time
	k.After(600*sim.Millisecond, func() {
		tgt.mute = false
		tgt.respond = func(frag int) bool {
			if frag == 0 {
				if frag0ServedAt == 0 {
					frag0ServedAt = k.Now()
				}
				return true
			}
			return false
		}
	})
	// t=2s: open up fully so the request completes.
	k.After(2*sim.Second, func() { tgt.respond = nil })

	var err error
	k.Spawn("client", func(p *sim.Proc) {
		_, err = in.Read(p, 0, 18) // 2 fragments
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if frag0ServedAt == 0 {
		t.Fatal("fragment 0 was never served")
	}

	// Find the gap between the first two frag-1 retransmits after the
	// frag-0 response (progress) arrived. With the reset it is a handful of
	// ms; without it the escalated RTO puts it hundreds of ms out.
	progress := frag0ServedAt.Add(ft.delay)
	var prev, next sim.Time
	for i, frag := range ft.sentFrag {
		if frag != 1 || ft.sentAt[i] <= progress {
			continue
		}
		if prev == 0 {
			prev = ft.sentAt[i]
			continue
		}
		next = ft.sentAt[i]
		break
	}
	if prev == 0 || next == 0 {
		t.Fatal("no frag-1 retransmits observed after progress")
	}
	if gap := next.Sub(prev); gap > 100*sim.Millisecond {
		t.Fatalf("retransmit gap after progress = %v; backoff did not reset", gap)
	}
}

func TestFailoverAfterRetriesExhausted(t *testing.T) {
	k := sim.New(1)
	ft := newFakeTransport(k)
	ft.targets[0x0A] = &fakeTarget{mute: true} // dead primary
	ft.targets[0x0B] = &fakeTarget{}           // live secondary
	in := NewInitiator(k, ft, 0x0A, 0, 0)
	in.AddTarget(0x0B, 1, 0)
	in.MaxRetries = 2

	var err error
	k.Spawn("client", func(p *sim.Proc) {
		if _, err = in.Read(p, 0, 8); err != nil {
			return
		}
		_, err = in.Read(p, 8, 8) // second request: straight to the secondary
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Failovers.Value(); got != 1 {
		t.Fatalf("Failovers = %d, want 1", got)
	}
	if in.Server != 0x0B || in.Major != 1 {
		t.Fatalf("initiator still addresses %v major %d after failover", in.Server, in.Major)
	}
	// The second request (reqID 1) must go straight to the secondary, never
	// probing the dead primary again.
	for i, mac := range ft.sentTo {
		if ft.sentReq[i] == 1 && mac == 0x0A {
			t.Fatal("request after failover still sent to the dead primary")
		}
	}
}

func TestFailoverOnTargetError(t *testing.T) {
	// An explicit error status (e.g. a media-error window) triggers
	// failover immediately, without burning MaxRetries timeouts first.
	k := sim.New(1)
	ft := newFakeTransport(k)
	ft.targets[0x0A] = &fakeTarget{fail: true}
	ft.targets[0x0B] = &fakeTarget{}
	in := NewInitiator(k, ft, 0x0A, 0, 0)
	in.AddTarget(0x0B, 0, 0)

	var err error
	k.Spawn("client", func(p *sim.Proc) {
		_, err = in.Read(p, 0, 8)
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if in.Failovers.Value() != 1 {
		t.Fatalf("Failovers = %d, want 1", in.Failovers.Value())
	}
	if k.Now() > sim.Time(sim.Second) {
		t.Fatalf("error-triggered failover took %v; should not wait out timeouts", k.Now())
	}
}

func TestNoSecondaryTargetErrorFailsRequest(t *testing.T) {
	k := sim.New(1)
	ft := newFakeTransport(k)
	ft.targets[0x0A] = &fakeTarget{fail: true}
	in := NewInitiator(k, ft, 0x0A, 0, 0)
	var err error
	k.Spawn("client", func(p *sim.Proc) {
		_, err = in.Read(p, 0, 8)
	})
	k.Run()
	if err == nil {
		t.Fatal("target error with no secondary did not fail the request")
	}
}

func TestFailoverCycleBounded(t *testing.T) {
	// With every target dead, a request tries each one once and then fails
	// instead of rotating forever.
	k := sim.New(1)
	ft := newFakeTransport(k)
	ft.targets[0x0A] = &fakeTarget{mute: true}
	ft.targets[0x0B] = &fakeTarget{mute: true}
	in := NewInitiator(k, ft, 0x0A, 0, 0)
	in.AddTarget(0x0B, 0, 0)
	in.MaxRetries = 1

	var err error
	k.Spawn("client", func(p *sim.Proc) {
		_, err = in.Read(p, 0, 8)
	})
	k.Run()
	if err == nil {
		t.Fatal("request with all targets dead succeeded")
	}
	if in.Failovers.Value() != 1 {
		t.Fatalf("Failovers = %d, want exactly 1 (one rotation, then fail)", in.Failovers.Value())
	}
}

func TestClosedInitiatorFailsFast(t *testing.T) {
	// A watchdog closing the initiator must make a stuck request error out
	// at its next timeout instead of grinding through every retry round.
	k := sim.New(1)
	ft := newFakeTransport(k)
	ft.targets[0x0A] = &fakeTarget{mute: true}
	in := NewInitiator(k, ft, 0x0A, 0, 0)
	in.MaxRetries = 1000

	k.After(20*sim.Millisecond, in.Close)
	var err error
	k.Spawn("client", func(p *sim.Proc) {
		_, err = in.Read(p, 0, 8)
	})
	k.Run()
	if err == nil {
		t.Fatal("request on a closed initiator succeeded")
	}
	if k.Now() > sim.Time(5*sim.Second) {
		t.Fatalf("closed initiator took %v to fail", k.Now())
	}
}
