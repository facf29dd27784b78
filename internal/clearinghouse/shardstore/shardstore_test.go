package shardstore

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

var t0 = time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)

func info(id types.WorkerID) wire.MemberInfo {
	return wire.MemberInfo{Worker: id, Addr: fmt.Sprintf("10.0.0.%d:7", id), HostedBy: id, Site: int32(id % 3)}
}

func TestRegisterDepartRemove(t *testing.T) {
	s := New()
	if created, departed := s.Register(1, info(1), t0); !created || departed {
		t.Fatalf("first register: created=%v departed=%v", created, departed)
	}
	if created, departed := s.Register(1, info(1), t0); created || departed {
		t.Fatalf("duplicate register: created=%v departed=%v", created, departed)
	}
	if e := s.Epoch(); e != 1 {
		t.Fatalf("epoch after one insert = %d, want 1", e)
	}
	s.Register(2, info(2), t0)
	if got := s.LiveCount(); got != 2 {
		t.Fatalf("LiveCount = %d, want 2", got)
	}
	if !s.Depart(1, 2) {
		t.Fatal("Depart(1) = false")
	}
	if s.Depart(1, 2) {
		t.Fatal("second Depart(1) = true")
	}
	if created, departed := s.Register(1, info(1), t0); created || !departed {
		t.Fatalf("re-register of tombstone: created=%v departed=%v", created, departed)
	}
	if s.IsLive(1) || !s.IsLive(2) {
		t.Fatalf("IsLive: 1=%v 2=%v", s.IsLive(1), s.IsLive(2))
	}
	m, ok := s.Member(1)
	if !ok || !m.Departed || m.Info.HostedBy != 2 {
		t.Fatalf("tombstone row = %+v ok=%v", m, ok)
	}
	if !s.Remove(2) {
		t.Fatal("Remove(2) = false")
	}
	if s.Remove(1) {
		t.Fatal("Remove of tombstone = true; crashes only apply to live members")
	}
	if got := s.LiveCount(); got != 0 {
		t.Fatalf("LiveCount after removals = %d, want 0", got)
	}
	// insert(1) + insert(2) + depart(1) + remove(2) = 4 bumps.
	if e := s.Epoch(); e != 4 {
		t.Fatalf("epoch = %d, want 4", e)
	}
}

func TestRehostAndCascade(t *testing.T) {
	s := New()
	for id := types.WorkerID(0); id < 10; id++ {
		s.Register(id, info(id), t0)
	}
	// 3 departs hosted by 7; 4 and 5 were already hosted by 3 (chain).
	s.Depart(3, 7)
	for _, id := range []types.WorkerID{4, 5} {
		s.Depart(id, 3)
	}
	s.Rehost(3, 7)
	for _, id := range []types.WorkerID{3, 4, 5} {
		m, _ := s.Member(id)
		if m.Info.HostedBy != 7 {
			t.Fatalf("member %d hostedBy = %d, want 7", id, m.Info.HostedBy)
		}
	}
	epochBefore := s.Epoch()
	if !s.Remove(7) {
		t.Fatal("Remove(7) = false")
	}
	removed := s.RemoveHostedBy(7)
	if len(removed) != 3 {
		t.Fatalf("cascade removed %v, want the 3 hosted tombstones", removed)
	}
	// A crash is one semantic event: Remove bumps once, the cascade not at all.
	if e := s.Epoch(); e != epochBefore+1 {
		t.Fatalf("epoch after crash = %d, want %d", e, epochBefore+1)
	}
	for _, id := range []types.WorkerID{3, 4, 5, 7} {
		if s.Contains(id) {
			t.Fatalf("member %d still present after cascade", id)
		}
	}
}

func sortedReports(s *Store) map[types.WorkerID]Report {
	m := make(map[types.WorkerID]Report)
	for _, r := range s.Reports() {
		m[r.Rep.Worker] = r
	}
	return m
}

func TestFoldReportMonotonic(t *testing.T) {
	s := New()
	s.Register(5, info(5), t0)
	newer := wire.StatReport{Worker: 5, Deque: 9, Counters: []int64{10, 20}}
	older := wire.StatReport{Worker: 5, Deque: 1, Counters: []int64{10, 5}}
	if !s.FoldReport(newer, t0) {
		t.Fatal("first fold rejected")
	}
	// The delayed duplicate from earlier in the incarnation must not win.
	if s.FoldReport(older, t0.Add(time.Second)) {
		t.Fatal("stale report (smaller cumulative sum) accepted")
	}
	got := sortedReports(s)[5]
	if got.Rep.Deque != 9 {
		t.Fatalf("report row regressed to %+v", got.Rep)
	}
	// Equal sums (an exact duplicate) may re-fold: idempotent either way.
	if !s.FoldReport(newer, t0.Add(2*time.Second)) {
		t.Fatal("exact duplicate rejected; latest-wins should accept equal progress")
	}
}

func TestSweepDeadAndHBSeenGate(t *testing.T) {
	s := New()
	for id := types.WorkerID(0); id < 4; id++ {
		s.Register(id, info(id), t0)
	}
	s.Heartbeat(0, t0)
	s.Heartbeat(1, t0.Add(10*time.Second))
	// 2 and 3 never heartbeated; with a zero grace cutoff they stay exempt
	// from the timeout (legacy behavior).
	now := t0.Add(10 * time.Second)
	dead := s.SweepDead(0, now, t0.Add(5*time.Second), time.Time{})
	if len(dead) != 1 || dead[0] != 0 {
		t.Fatalf("SweepDead = %v, want [0]", dead)
	}
}

func TestSweepDeadRegistrationGrace(t *testing.T) {
	s := New()
	s.Register(1, info(1), t0)
	s.Register(2, info(2), t0.Add(8*time.Second))
	// Neither ever heartbeated. A grace cutoff later than 1's registration
	// but earlier than 2's evicts only 1: the forever-exemption is gone, but
	// a freshly registered worker still gets its grace window.
	now := t0.Add(10 * time.Second)
	dead := s.SweepDead(0, now, now, t0.Add(5*time.Second))
	if len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("SweepDead = %v, want [1] (grace expired for 1 only)", dead)
	}
	s.Remove(1) // the clearinghouse removes swept members
	// A heartbeat moves 2 under the normal regimes; the grace no longer
	// applies once HBSeen is set.
	s.Heartbeat(2, now)
	dead = s.SweepDead(0, now.Add(time.Minute), now.Add(30*time.Second), now.Add(50*time.Second))
	if len(dead) != 1 || dead[0] != 2 {
		t.Fatalf("SweepDead after heartbeat = %v, want [2] (fixed fallback)", dead)
	}
}

// TestPhiWarmupAndAdaptivity: phi is unavailable until phiMinSamples gaps
// have been observed, then scores silence relative to the member's own
// cadence — a slow-cadence member tolerates a silence that convicts a
// fast-cadence one.
func TestPhiWarmupAndAdaptivity(t *testing.T) {
	s := New()
	s.Register(1, info(1), t0)
	s.Register(2, info(2), t0)
	now := t0
	s.Heartbeat(1, now)
	s.Heartbeat(2, now)
	for i := 0; i < 16; i++ {
		now = now.Add(100 * time.Millisecond) // worker 1: 100 ms cadence
		s.Heartbeat(1, now)
		if i%10 == 9 {
			s.Heartbeat(2, now) // worker 2: 1 s cadence
		}
	}
	if _, warm := s.Phi(1, now); !warm {
		t.Fatal("worker 1 not warm after 16 regular gaps")
	}
	// Shortly after a beat both score near zero.
	if phi, _ := s.Phi(1, now.Add(50*time.Millisecond)); phi > 1 {
		t.Fatalf("phi(1) right after a beat = %v, want ~0", phi)
	}
	// One second of silence convicts the 100 ms-cadence member but is
	// within the 1 s-cadence member's normal rhythm.
	probe := now.Add(time.Second)
	phi1, warm1 := s.Phi(1, probe)
	phi2, warm2 := s.Phi(2, probe)
	if !warm1 {
		t.Fatal("worker 1 went cold")
	}
	if phi1 < 8 {
		t.Fatalf("phi(1) after 10x-cadence silence = %v, want >= 8", phi1)
	}
	if warm2 && phi2 >= 8 {
		t.Fatalf("phi(2) after 1x-cadence silence = %v, want < 8", phi2)
	}
	// An unknown member is never warm.
	if _, warm := s.Phi(99, probe); warm {
		t.Fatal("unknown member reported warm phi")
	}
}

// TestPhiSlack: the store-level acceptable-pause allowance is subtracted
// from elapsed silence before scoring.
func TestPhiSlack(t *testing.T) {
	s := New()
	s.Register(1, info(1), t0)
	now := t0
	s.Heartbeat(1, now)
	for i := 0; i < 8; i++ {
		now = now.Add(10 * time.Millisecond)
		s.Heartbeat(1, now)
	}
	probe := now.Add(300 * time.Millisecond)
	if phi, _ := s.Phi(1, probe); phi < 8 {
		t.Fatalf("phi without slack after 30x silence = %v, want >= 8", phi)
	}
	s.SetPhiSlack(time.Second)
	if phi, _ := s.Phi(1, probe); phi > 1 {
		t.Fatalf("phi with 1s slack = %v, want ~0 (silence inside the allowance)", phi)
	}
}

// TestSweepDeadPhi: a warm member is judged by phi, not the fixed cutoff; a
// cold member falls back to the fixed cutoff.
func TestSweepDeadPhi(t *testing.T) {
	s := New()
	s.Register(1, info(1), t0) // will warm up
	s.Register(2, info(2), t0) // stays cold (one beat, no gaps)
	now := t0
	s.Heartbeat(1, now)
	s.Heartbeat(2, now)
	for i := 0; i < 12; i++ {
		now = now.Add(50 * time.Millisecond)
		s.Heartbeat(1, now)
	}
	// Probe 2 s after 1's last beat — 40x its cadence, far past phi=8 —
	// with a fixed cutoff so lax neither member trips it. Only the warm
	// member is evicted: phi detects faster than the conservative fallback.
	probe := now.Add(2 * time.Second)
	laxCutoff := t0.Add(-time.Hour)
	dead := s.SweepDead(8, probe, laxCutoff, time.Time{})
	if len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("phi sweep = %v, want [1] (warm member by phi, cold member exempt)", dead)
	}
	// The cold member is still governed by the fixed cutoff.
	s2 := New()
	s2.Register(2, info(2), t0)
	s2.Heartbeat(2, t0)
	dead = s2.SweepDead(8, t0.Add(time.Minute), t0.Add(30*time.Second), time.Time{})
	if len(dead) != 1 || dead[0] != 2 {
		t.Fatalf("cold-member sweep = %v, want [2] (fixed fallback)", dead)
	}
	// Phis reports the warm scores for telemetry.
	rows := s.Phis(probe)
	var found bool
	for _, r := range rows {
		if r.Worker == 1 && r.Warm && r.Phi >= 8 {
			found = true
		}
	}
	if !found {
		t.Fatalf("Phis(%v) = %+v, want warm worker 1 with phi >= 8", probe, rows)
	}
}

// TestRestoreMemberColdHistory: journal-recovered members carry no gap
// history, so they are governed by the fixed fallback (no instant
// suspicion from a stale pre-outage cadence) yet remain sweepable.
func TestRestoreMemberColdHistory(t *testing.T) {
	s := New()
	s.RestoreMember(info(1), false, t0)
	if _, warm := s.Phi(1, t0.Add(time.Second)); warm {
		t.Fatal("restored member has warm phi; recovery must cold-start history")
	}
	// Sweepable by the fixed fallback immediately (HBSeen is set).
	dead := s.SweepDead(8, t0.Add(time.Minute), t0.Add(30*time.Second), time.Time{})
	if len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("restored-member sweep = %v, want [1]", dead)
	}
}

func TestEvictReports(t *testing.T) {
	s := New()
	s.Register(1, info(1), t0)
	s.FoldReport(wire.StatReport{Worker: 1, Counters: []int64{1}}, t0)
	s.FoldReport(wire.StatReport{Worker: 2, Counters: []int64{1}}, t0) // never a member
	s.Register(3, info(3), t0)
	s.FoldReport(wire.StatReport{Worker: 3, Counters: []int64{1}}, t0)
	s.Depart(3, types.NoWorker)
	cutoff := t0.Add(time.Minute)
	if n := s.EvictReports(cutoff); n != 2 {
		t.Fatalf("evicted %d rows, want 2 (the non-member and the tombstone)", n)
	}
	reps := s.Reports()
	if len(reps) != 1 || reps[0].Rep.Worker != 1 {
		t.Fatalf("surviving reports = %v, want live member 1 only", reps)
	}
	// Fresh rows survive even for non-members (report may precede Register).
	s.FoldReport(wire.StatReport{Worker: 9, Counters: []int64{1}}, cutoff.Add(time.Second))
	if n := s.EvictReports(cutoff); n != 0 {
		t.Fatalf("evicted %d fresh rows, want 0", n)
	}
}

func TestEpochBaseRecovery(t *testing.T) {
	s := New()
	s.SetEpoch(100)
	s.RestoreMember(info(1), false, t0)
	s.RestoreMember(info(2), true, t0)
	if e := s.Epoch(); e != 100 {
		t.Fatalf("epoch after restore = %d, want base 100 (restores do not bump)", e)
	}
	if got := s.LiveCount(); got != 1 {
		t.Fatalf("live after restore = %d, want 1", got)
	}
	m, _ := s.Member(1)
	if !m.HBSeen {
		t.Fatal("restored member not heartbeat-known; outage survivors must be sweepable")
	}
	s.Register(3, info(3), t0)
	if e := s.Epoch(); e != 101 {
		t.Fatalf("epoch after post-recovery insert = %d, want 101", e)
	}
}

// BenchmarkFold measures what the clearinghouse's one ingest goroutine
// pays per inbound heartbeat or StatReport: alternating Heartbeat and
// FoldReport calls for random members of a 4096-worker table, one op per
// fold.
func BenchmarkFold(b *testing.B) {
	s := New()
	const pop = 4096
	for id := types.WorkerID(0); id < pop; id++ {
		s.Register(id, info(id), t0)
	}
	rng := rand.New(rand.NewSource(1))
	ids := make([]types.WorkerID, 1024)
	for i := range ids {
		ids[i] = types.WorkerID(rng.Intn(pop))
	}
	counters := []int64{1, 2, 3}
	now := t0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		if i%2 == 0 {
			now = now.Add(time.Millisecond)
			s.Heartbeat(id, now)
		} else {
			s.FoldReport(wire.StatReport{Worker: id, Counters: counters}, now)
		}
	}
}
