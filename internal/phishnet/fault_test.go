package phishnet

import (
	"testing"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

func TestFaultsJudgeDeterministic(t *testing.T) {
	plan := FaultPlan{Seed: 42, Drop: 0.3, Duplicate: 0.2, Delay: time.Millisecond, DelayJitter: time.Millisecond}
	a := NewFaults(plan)
	b := NewFaults(plan)
	for i := 0; i < 200; i++ {
		va, vb := a.Judge(1, 2), b.Judge(1, 2)
		if va != vb {
			t.Fatalf("call %d: verdicts diverge: %+v vs %+v", i, va, vb)
		}
	}
	// Distinct ordered pairs draw from unrelated streams: over 200 calls
	// with 30%% drop probability, (1,2) and (2,1) agreeing everywhere would
	// mean the streams are correlated.
	c, d := NewFaults(plan), NewFaults(plan)
	same := 0
	for i := 0; i < 200; i++ {
		if c.Judge(1, 2).Drop == d.Judge(2, 1).Drop {
			same++
		}
	}
	if same == 200 {
		t.Error("pair (1,2) and (2,1) made identical drop decisions; streams are not independent")
	}
}

func TestFaultsPartitionDoesNotShiftStream(t *testing.T) {
	// A partition healing mid-run must not change the pair's subsequent
	// probabilistic decisions: Judge consumes the same number of draws
	// whether or not the pair is cut.
	plan := FaultPlan{Seed: 7, Drop: 0.25, Duplicate: 0.25}
	ref := NewFaults(plan)
	cut := NewFaults(plan)
	var refV, cutV []Verdict
	for i := 0; i < 100; i++ {
		refV = append(refV, ref.Judge(3, 4))
	}
	for i := 0; i < 100; i++ {
		if i == 20 {
			cut.Partition(3, 4)
		}
		if i == 40 {
			cut.Heal(3, 4)
		}
		cutV = append(cutV, cut.Judge(3, 4))
	}
	for i := 0; i < 100; i++ {
		if i >= 20 && i < 40 {
			if !cutV[i].Drop {
				t.Fatalf("call %d: partitioned pair not dropped", i)
			}
			continue
		}
		if refV[i] != cutV[i] {
			t.Fatalf("call %d: healing the partition shifted the stream: %+v vs %+v", i, refV[i], cutV[i])
		}
	}
}

func TestFaultsIsolateCoversLatePeers(t *testing.T) {
	f := NewFaults(FaultPlan{Seed: 1})
	f.Isolate(5)
	if !f.Judge(5, 99).Drop || !f.Judge(99, 5).Drop {
		t.Error("isolated worker still exchanging messages")
	}
	if f.Judge(98, 99).Drop {
		t.Error("bystander pair dropped by an isolation")
	}
	f.Rejoin(5)
	if f.Judge(5, 99).Drop && f.Partitioned(5, 99) {
		t.Error("Rejoin left the wildcard cut in place")
	}
}

func TestFabricFaultPartitionSurfacesAsSendError(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	fl := NewFaults(FaultPlan{Seed: 3})
	f.SetFaults(fl)
	a := f.Attach(1)
	b := f.Attach(2)

	fl.Partition(1, 2)
	if err := a.Send(&wire.Envelope{From: 1, To: 2}); err != ErrUnknownPeer {
		t.Errorf("partitioned send: err = %v, want ErrUnknownPeer", err)
	}
	fl.Heal(1, 2)
	if err := a.Send(&wire.Envelope{From: 1, To: 2, Payload: wire.StayRequest{Worker: 1}}); err != nil {
		t.Fatalf("healed send: %v", err)
	}
	recvOne(t, b, time.Second)
}

func TestFabricFaultDuplicateDeliversTwice(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	f.SetFaults(NewFaults(FaultPlan{Seed: 3, Duplicate: 1.0}))
	a := f.Attach(1)
	b := f.Attach(2)
	if err := a.Send(&wire.Envelope{From: 1, To: 2, Payload: wire.StayRequest{Worker: 1}}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, time.Second)
	recvOne(t, b, time.Second) // the duplicate
	select {
	case <-b.Recv():
		t.Error("more than two copies delivered")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestUDPBackoffGiveUp blackholes a peer at the datagram level and checks
// the reliability layer's full failure arc: retransmit intervals back off
// (doubling, jittered ±25%), the frame is eventually abandoned, and the
// peer's death is reported exactly once.
func TestUDPBackoffGiveUp(t *testing.T) { bothReaders(t, testUDPBackoffGiveUp) }

// bothReaders runs a two-endpoint test twice: with the netpoller reader on
// both endpoints, and with both owned by the test, which then reads them
// with Poll as a worker does. recv is the matching receive.
func bothReaders(t *testing.T, test func(t *testing.T, a, b *UDP, recv func(*testing.T, *UDP, time.Duration) *wire.Envelope)) {
	t.Run("netpoller", func(t *testing.T) {
		a, b := udpPair(t)
		test(t, a, b, func(t *testing.T, u *UDP, d time.Duration) *wire.Envelope { return recvOne(t, u, d) })
	})
	t.Run("owner-polled", func(t *testing.T) {
		a, b := udpPair(t)
		own(t, a)
		own(t, b)
		test(t, a, b, recvOwned)
	})
}

func testUDPBackoffGiveUp(t *testing.T, a, b *UDP, recv func(*testing.T, *UDP, time.Duration) *wire.Envelope) {
	const tries = 5
	a.SetRetransmit(20*time.Millisecond, 300*time.Millisecond, tries)
	fl := NewFaults(FaultPlan{Seed: 11})
	fl.RecordDrops(true)
	fl.Isolate(2) // every datagram a→2 vanishes
	a.SetFaults(fl)

	if err := a.Send(&wire.Envelope{To: 2, Payload: wire.StayRequest{Worker: 1}}); err != nil {
		t.Fatal(err)
	}

	if id, ok := awaitPeerGone(t, a, 10*time.Second); !ok {
		t.Fatal("retransmits never gave up")
	} else if id != 2 {
		t.Fatalf("peer-down for %d, want 2", id)
	}
	// Exactly once: no second report, even though the retransmit loop keeps
	// running.
	if id, ok := awaitPeerGone(t, a, 200*time.Millisecond); ok {
		t.Fatalf("duplicate peer-down report for %d", id)
	}

	// The drop log is the datagram trace: one original send plus `tries`
	// retransmits, with backed-off spacing. Jitter is ±25%, so the k+2-th
	// interval (4× the base) always exceeds the k-th even with polling
	// slop.
	drops := fl.Drops()
	if len(drops) != tries+1 {
		t.Fatalf("recorded %d drops, want %d (1 send + %d retransmits)", len(drops), tries+1, tries)
	}
	var intervals []time.Duration
	for i := 1; i < len(drops); i++ {
		intervals = append(intervals, drops[i].At.Sub(drops[i-1].At))
	}
	for i := 2; i < len(intervals); i++ {
		if intervals[i] <= intervals[i-2] {
			t.Errorf("retransmit intervals not backing off: %v", intervals)
			break
		}
	}

	// Hearing from the peer again rearms the report.
	fl.Rejoin(2)
	if err := b.Send(&wire.Envelope{To: 1, Payload: wire.StayRequest{Worker: 2}}); err != nil {
		t.Fatal(err)
	}
	recv(t, a, 2*time.Second)
	a.mu.Lock()
	windows := len(a.seen)
	a.mu.Unlock()
	if windows != 1 {
		t.Fatalf("%d dedup windows after hearing from one peer", windows)
	}
	fl.Isolate(2)
	if err := a.Send(&wire.Envelope{To: 2, Payload: wire.StayRequest{Worker: 1}}); err != nil {
		t.Fatal(err)
	}
	if id, ok := awaitPeerGone(t, a, 10*time.Second); !ok {
		t.Fatal("peer-down did not rearm after the peer spoke")
	} else if id != 2 {
		t.Fatalf("second peer-down for %d, want 2", id)
	}
	// Giving up on a peer lets go of its dedup window too.
	a.mu.Lock()
	windows = len(a.seen)
	a.mu.Unlock()
	if windows != 0 {
		t.Errorf("%d dedup window(s) kept for a peer given up on", windows)
	}
}

// TestUDPFaultDropsAreRetransmitted injects heavy probabilistic loss and
// checks the reliability layer still delivers everything exactly once.
func TestUDPFaultDropsAreRetransmitted(t *testing.T) {
	bothReaders(t, testUDPFaultDropsAreRetransmitted)
}

func testUDPFaultDropsAreRetransmitted(t *testing.T, a, b *UDP, recv func(*testing.T, *UDP, time.Duration) *wire.Envelope) {
	a.SetRetransmit(5*time.Millisecond, 50*time.Millisecond, 50)
	b.SetRetransmit(5*time.Millisecond, 50*time.Millisecond, 50)
	fl := NewFaults(FaultPlan{Seed: 99, Drop: 0.4, Duplicate: 0.2})
	a.SetFaults(fl)
	b.SetFaults(fl)

	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send(&wire.Envelope{To: 2, Payload: wire.StayRequest{Worker: types.WorkerID(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]bool)
	for len(seen) < n {
		env := recv(t, b, 20*time.Second) // fatal if 40% loss is never made good
		if seen[env.Seq] {
			t.Fatalf("duplicate seq %d delivered above the dedup window", env.Seq)
		}
		seen[env.Seq] = true
	}
}

// TestGrayFaultShapes: asymmetric loss applies per direction, the latency
// ramp grows from zero toward its cap, and ClearGray/HealAll heal.
func TestGrayFaultShapes(t *testing.T) {
	f := NewFaults(FaultPlan{Seed: 3})
	f.SetGray(1, GrayFault{LossOut: 1}) // everything 1 sends is lost
	if v := f.Judge(1, 2); !v.Drop {
		t.Fatal("LossOut=1 did not drop an outbound message")
	}
	if v := f.Judge(2, 1); v.Drop {
		t.Fatal("LossOut dropped an inbound message (asymmetry broken)")
	}
	f.SetGray(1, GrayFault{LossIn: 1})
	if v := f.Judge(2, 1); !v.Drop {
		t.Fatal("LossIn=1 did not drop an inbound message")
	}
	if v := f.Judge(1, 2); v.Drop {
		t.Fatal("LossIn dropped an outbound message (asymmetry broken)")
	}

	// Latency ramp: installed with Start in the past, the ramp is partway
	// up; far past, it is capped.
	f.HealAll()
	f.SetGray(1, GrayFault{Start: time.Now().Add(-5 * time.Second),
		RampOver: 10 * time.Second, MaxDelay: 100 * time.Millisecond})
	v := f.Judge(1, 2)
	if v.Delay < 30*time.Millisecond || v.Delay > 70*time.Millisecond {
		t.Fatalf("mid-ramp delay = %v, want ~50ms", v.Delay)
	}
	f.SetGray(1, GrayFault{Start: time.Now().Add(-time.Minute),
		RampOver: 10 * time.Second, MaxDelay: 100 * time.Millisecond})
	if v := f.Judge(1, 2); v.Delay != 100*time.Millisecond {
		t.Fatalf("post-ramp delay = %v, want the 100ms cap", v.Delay)
	}
	f.ClearGray(1)
	if v := f.Judge(1, 2); v.Delay != 0 || v.Drop {
		t.Fatalf("verdict after ClearGray = %+v, want clean", v)
	}
}
