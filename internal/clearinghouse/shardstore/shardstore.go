// Package shardstore is the clearinghouse's worker-keyed state: the
// membership table, heartbeat liveness with its phi-accrual history, the
// membership epoch, and the latest piggybacked StatReport per worker. The
// name is historical: the store was once split into lock stripes, which one
// writer could never use (DESIGN §5d).
//
// A Store has no lock of its own: the caller serializes every call, reads
// included (the clearinghouse holds its job lock around each), so a
// read-then-write sequence such as IsLive followed by Depart sees no
// interleaved mutation.
package shardstore

import (
	"math"
	"sort"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

// Phi-accrual detector tuning. The window bounds how much history one
// member's inter-arrival ring holds; the minimum sample count keeps a cold
// member (fresh registration or journal recovery) on the fixed fallback
// timeout instead of letting one or two gaps produce a spiky estimate.
const (
	phiWindow     = 32
	phiMinSamples = 4
)

// Member is one (possibly departed) participant's record.
type Member struct {
	Info      wire.MemberInfo
	LastHeard time.Time
	Departed  bool
	// HBSeen gates timeout-based crash detection: only a worker that has
	// actually heartbeated may be declared dead by silence.
	HBSeen bool
	// RegisteredAt anchors the registration-grace deadline: a member that
	// registers but never heartbeats is not exempt from the sweep forever —
	// past the grace it is declared dead like any silent worker.
	RegisteredAt time.Time

	// Phi-accrual inter-arrival history: a ring of recent heartbeat gaps
	// with running sum and sum-of-squares, so Phi is O(1). The history is
	// cold (phi unavailable, fixed fallback applies) until phiMinSamples
	// gaps accrue — a recovered or freshly registered member can neither be
	// instantly suspected nor permanently exempted.
	hbLast   time.Time
	hbGaps   [phiWindow]int64
	hbGapN   int
	hbGapIdx int
	hbGapSum int64
	hbGapSq  float64
}

// beat folds one heartbeat arrival into the member's detector state. The
// first beat only anchors hbLast; gaps are measured between consecutive
// beats. Zero gaps (several beats folded from one inbox drain at the same
// instant) carry no arrival-process information and are skipped.
func (m *Member) beat(now time.Time) {
	if m.HBSeen && !m.hbLast.IsZero() {
		if gap := now.Sub(m.hbLast).Nanoseconds(); gap > 0 {
			if m.hbGapN == phiWindow {
				old := m.hbGaps[m.hbGapIdx]
				m.hbGapSum -= old
				m.hbGapSq -= float64(old) * float64(old)
			} else {
				m.hbGapN++
			}
			m.hbGaps[m.hbGapIdx] = gap
			m.hbGapIdx = (m.hbGapIdx + 1) % phiWindow
			m.hbGapSum += gap
			m.hbGapSq += float64(gap) * float64(gap)
		}
	}
	if now.After(m.hbLast) {
		m.hbLast = now
	}
	m.LastHeard = now
	m.HBSeen = true
}

// phi returns the suspicion score for the member at now, and whether the
// history is warm enough to score at all. Phi is the standard accrual
// scale: -log10 of the probability that a heartbeat later than the elapsed
// silence would still arrive, under a normal fit of the observed gaps.
// Phi 1 ≈ 90% confidence the member is gone, 2 ≈ 99%, 8 ≈ 1-1e-8.
//
// slack is an acceptable-pause allowance in nanoseconds, subtracted from
// the elapsed silence before scoring: on real clocks a GC or scheduler
// stall delays heartbeats by far more than the network jitter the gap
// history models, and without the allowance a tight history (fast
// heartbeats, low variance) crosses any threshold within a stall's worth
// of silence.
func (m *Member) phi(now time.Time, slack int64) (float64, bool) {
	if m.hbGapN < phiMinSamples {
		return 0, false
	}
	n := float64(m.hbGapN)
	mean := float64(m.hbGapSum) / n
	variance := m.hbGapSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	stddev := math.Sqrt(variance)
	// Floor the deviation: a metronomic heartbeat (fake clock, idle LAN)
	// would otherwise make any delay register as infinite suspicion.
	if min := mean / 4; stddev < min {
		stddev = min
	}
	elapsed := float64(now.Sub(m.hbLast).Nanoseconds() - slack)
	if elapsed < 0 {
		elapsed = 0
	}
	return phiScore(elapsed, mean, stddev), true
}

// phiScore evaluates -log10(1 - CDF(elapsed)) using the logistic
// approximation to the normal CDF (same shape Cassandra and Akka use):
// monotonic in elapsed, exact enough at the tails that matter.
func phiScore(elapsed, mean, stddev float64) float64 {
	y := (elapsed - mean) / stddev
	e := math.Exp(-y * (1.5976 + 0.070566*y*y))
	var p float64
	if elapsed > mean {
		p = e / (1 + e)
	} else {
		p = 1 - 1/(1+e)
	}
	if p < 1e-300 {
		p = 1e-300 // cap phi around 300 instead of returning +Inf
	}
	return -math.Log10(p)
}

// Report is the latest StatReport accepted from one worker, its arrival
// time (for staleness display), and the monotonic key that rejected stale
// reorderings (see FoldReport).
type Report struct {
	Rep wire.StatReport
	At  time.Time
	key int64
}

// Store is the clearinghouse's worker-keyed state.
type Store struct {
	members map[types.WorkerID]*Member
	reports map[types.WorkerID]Report
	// epoch counts membership events: one bump per semantic event, seeded
	// past the journaled value on recovery (SetEpoch).
	epoch uint64
	// live caches the non-departed member count.
	live int
	// phiSlack is the acceptable-pause allowance (ns) subtracted from every
	// member's elapsed silence before phi scoring; see Member.phi.
	phiSlack int64
}

// New builds an empty store.
func New() *Store {
	return &Store{
		members: make(map[types.WorkerID]*Member),
		reports: make(map[types.WorkerID]Report),
	}
}

// SetPhiSlack configures the acceptable-pause allowance applied to every
// phi evaluation (Phi, Phis, SweepDead). Zero means no allowance.
func (s *Store) SetPhiSlack(d time.Duration) {
	s.phiSlack = d.Nanoseconds()
}

// ---- Epoch ----------------------------------------------------------------

// Epoch returns the membership epoch. It is monotonic.
func (s *Store) Epoch() uint64 {
	return s.epoch
}

// SetEpoch seeds the epoch after recovery, before any post-recovery
// mutation bumps it.
func (s *Store) SetEpoch(e uint64) {
	s.epoch = e
}

// ---- Membership mutations (serialized writers) ----------------------------

// Register inserts id as a live member if it is absent. It returns the
// member's state after the call: created says a new row was added (and the
// epoch bumped), departed reports a tombstone (a departed id
// re-registering is a protocol violation; the tombstone is kept). An
// existing live member just has its liveness refreshed (a duplicate
// Register retry).
func (s *Store) Register(id types.WorkerID, info wire.MemberInfo, now time.Time) (created, departed bool) {
	m, ok := s.members[id]
	switch {
	case !ok:
		s.members[id] = &Member{Info: info, LastHeard: now, RegisteredAt: now}
		s.epoch++
		s.live++
		return true, false
	case m.Departed:
		return false, true
	default:
		m.LastHeard = now
		return false, false
	}
}

// AddTombstone inserts a departed member (a restore bundle's old id being
// adopted under a new one) and bumps the epoch.
func (s *Store) AddTombstone(id types.WorkerID, info wire.MemberInfo) {
	s.members[id] = &Member{Info: info, Departed: true}
	s.epoch++
}

// Contains reports whether id has a row (live or tombstoned).
func (s *Store) Contains(id types.WorkerID) bool {
	_, ok := s.members[id]
	return ok
}

// Member returns a copy of id's row.
func (s *Store) Member(id types.WorkerID) (Member, bool) {
	if m, ok := s.members[id]; ok {
		return *m, true
	}
	return Member{}, false
}

// IsLive reports whether id is a non-departed member.
func (s *Store) IsLive(id types.WorkerID) bool {
	m, ok := s.members[id]
	return ok && !m.Departed
}

// Depart tombstones a live member: it stops counting as live, its tasks
// are served by hostedBy (NoWorker for a clean exit with no state), and
// the epoch bumps. It reports whether the member was live.
func (s *Store) Depart(id, hostedBy types.WorkerID) bool {
	m, ok := s.members[id]
	if !ok || m.Departed {
		return false
	}
	m.Departed = true
	m.Info.HostedBy = hostedBy
	s.epoch++
	s.live--
	return true
}

// Remove deletes a live member outright (a crash: its state is gone, not
// hosted anywhere) and bumps the epoch. It reports whether the member was
// present and live.
func (s *Store) Remove(id types.WorkerID) bool {
	m, ok := s.members[id]
	if !ok || m.Departed {
		return false
	}
	delete(s.members, id)
	s.epoch++
	s.live--
	return true
}

// RemoveHostedBy deletes every member whose tasks were hosted by dead (the
// crash cascade: state hosted by a dead worker died with it) and returns
// the removed ids. No epoch bump — the cascade is part of one crash event,
// and the Remove of the dead worker itself already bumped.
func (s *Store) RemoveHostedBy(dead types.WorkerID) []types.WorkerID {
	var removed []types.WorkerID
	for id, m := range s.members {
		if id != dead && m.Info.HostedBy == dead {
			if !m.Departed {
				s.live--
			}
			delete(s.members, id)
			removed = append(removed, id)
		}
	}
	return removed
}

// Bump advances the epoch by one without any row mutation (a
// membership-visible event that rewired existing rows, e.g. a restore
// bundle adopted under its original id).
func (s *Store) Bump() {
	s.epoch++
}

// Rehost flattens hosting chains: every member hosted by from moves to to.
// No epoch bump — the departure that caused it already bumped once.
func (s *Store) Rehost(from, to types.WorkerID) {
	for _, m := range s.members {
		if m.Info.HostedBy == from {
			m.Info.HostedBy = to
		}
	}
}

// RestoreMember folds one recovered journal row into the store without an
// epoch bump (recovery seeds the epoch via SetEpoch). Recovered members
// are heartbeat-known: the heartbeat machinery re-establishes who actually
// survived the outage. Their inter-arrival history is cold — the
// pre-outage arrival process says nothing about the post-outage one — so
// the fixed fallback timeout governs them until fresh gaps accrue: no
// instant suspicion, no permanent exemption.
func (s *Store) RestoreMember(info wire.MemberInfo, departed bool, now time.Time) {
	s.members[info.Worker] = &Member{Info: info, LastHeard: now, Departed: departed, HBSeen: true, RegisteredAt: now, hbLast: now}
	if !departed {
		s.live++
	}
}

// ---- Liveness and telemetry folds -----------------------------------------

// Touch refreshes id's liveness: any traffic from a live member proves it
// is alive.
func (s *Store) Touch(id types.WorkerID, now time.Time) {
	if m, ok := s.members[id]; ok && !m.Departed {
		m.LastHeard = now
	}
}

// Heartbeat refreshes liveness, marks the member heartbeat-known, and
// folds the arrival into its phi inter-arrival history.
func (s *Store) Heartbeat(id types.WorkerID, now time.Time) {
	if m, ok := s.members[id]; ok && !m.Departed {
		m.beat(now)
	}
}

// Phi returns id's suspicion score at now. warm reports whether the
// member has enough inter-arrival history to score; a cold member always
// scores 0 and must be judged by the fixed fallback timeout instead.
func (s *Store) Phi(id types.WorkerID, now time.Time) (score float64, warm bool) {
	m, ok := s.members[id]
	if !ok || m.Departed || !m.HBSeen {
		return 0, false
	}
	return m.phi(now, s.phiSlack)
}

// PhiRow is one live member's suspicion score for rollups.
type PhiRow struct {
	Worker types.WorkerID
	Phi    float64
	Warm   bool
}

// Phis returns the suspicion score of every live heartbeat-known member,
// sorted by worker id.
func (s *Store) Phis(now time.Time) []PhiRow {
	var out []PhiRow
	for id, m := range s.members {
		if m.Departed || !m.HBSeen {
			continue
		}
		score, warm := m.phi(now, s.phiSlack)
		out = append(out, PhiRow{Worker: id, Phi: score, Warm: warm})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// reportKey is the monotonic ordering key of a cumulative StatReport: the
// sum of its counters. Every counter in stats.OrderedNames is monotonic
// within one worker incarnation (and worker ids are incarnation-unique),
// so a later report never has a smaller sum. A delayed, reordered, or
// duplicated report from earlier in the same incarnation has a strictly
// smaller-or-equal sum and must not overwrite a newer row.
func reportKey(rep *wire.StatReport) int64 {
	var k int64
	for _, v := range rep.Counters {
		k += v
	}
	return k
}

// FoldReport folds one StatReport: latest-wins by cumulative progress, not
// by arrival order. It reports whether the row was updated.
func (s *Store) FoldReport(rep wire.StatReport, now time.Time) bool {
	// Any traffic from a live member proves it is alive.
	if m, ok := s.members[rep.Worker]; ok && !m.Departed {
		m.LastHeard = now
	}
	key := reportKey(&rep)
	if old, ok := s.reports[rep.Worker]; ok && key < old.key {
		return false // stale reordering: an older cumulative state arrived late
	}
	s.reports[rep.Worker] = Report{Rep: rep, At: now, key: key}
	return true
}

// ---- Reads ----------------------------------------------------------------

// LiveCount returns the number of non-departed members.
func (s *Store) LiveCount() int {
	return s.live
}

// LiveIDs returns the sorted ids of non-departed members.
func (s *Store) LiveIDs() []types.WorkerID {
	var ids []types.WorkerID
	for id, m := range s.members {
		if !m.Departed {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Members returns every row (live and tombstoned), sorted by worker id.
// Each element is a copy.
func (s *Store) Members() []Member {
	var out []Member
	for _, m := range s.members {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info.Worker < out[j].Info.Worker })
	return out
}

// SweepDead returns the live members the detector declares dead at now.
// The caller (the Run goroutine) turns each into a crash. Three regimes
// per member:
//
//   - Heartbeat-known with a warm inter-arrival history and phiThreshold
//     > 0: dead when the phi-accrual suspicion crosses the threshold. The
//     detector adapts — a worker with naturally jittery heartbeats earns
//     slack, a metronomic one is declared quickly.
//   - Heartbeat-known but cold (fresh registration, journal recovery) or
//     phi disabled (phiThreshold <= 0): dead when LastHeard predates
//     fallbackCutoff, the classic fixed timeout.
//   - Never heartbeated: dead when RegisteredAt predates graceCutoff. A
//     member that registers and goes silent before its first heartbeat is
//     not exempt forever — past the registration grace its closures are
//     redistributed like any crash. A zero graceCutoff disables the grace
//     sweep (members restored by older journals carry no RegisteredAt).
func (s *Store) SweepDead(phiThreshold float64, now, fallbackCutoff, graceCutoff time.Time) []types.WorkerID {
	var dead []types.WorkerID
	for id, m := range s.members {
		if m.Departed {
			continue
		}
		if !m.HBSeen {
			if !graceCutoff.IsZero() && !m.RegisteredAt.IsZero() && m.RegisteredAt.Before(graceCutoff) {
				dead = append(dead, id)
			}
			continue
		}
		if phiThreshold > 0 {
			if score, warm := m.phi(now, s.phiSlack); warm {
				if score > phiThreshold {
					dead = append(dead, id)
				}
				continue
			}
		}
		if m.LastHeard.Before(fallbackCutoff) {
			dead = append(dead, id)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	return dead
}

// ReportOf returns one worker's latest report row (a copy), if any. Used
// by the crash path to salvage a dead worker's last published checkpoints
// before its rows are removed.
func (s *Store) ReportOf(id types.WorkerID) (Report, bool) {
	r, ok := s.reports[id]
	return r, ok
}

// Reports returns every worker's latest report row, unsorted (the rollup
// sorts after decorating). Each element is a copy.
func (s *Store) Reports() []Report {
	var out []Report
	for _, r := range s.reports {
		out = append(out, r)
	}
	return out
}

// EvictReports drops telemetry rows whose worker is no longer a live
// member and whose last report predates cutoff — TTL eviction, so a job
// with churn does not accrete dead workers' rows forever. It returns the
// number evicted. Live members are never evicted (their rows only go stale
// if they stop reporting, which the heartbeat timeout turns into a crash
// first).
func (s *Store) EvictReports(cutoff time.Time) int {
	evicted := 0
	for id, r := range s.reports {
		if r.At.After(cutoff) {
			continue
		}
		if m, ok := s.members[id]; ok && !m.Departed {
			continue
		}
		delete(s.reports, id)
		evicted++
	}
	return evicted
}
