// Graded worker health. The binary alive/dead sweep (shardstore.SweepDead)
// catches fail-stop crashes; this file catches the NOW reality in between —
// workstations that go slow without going down. Three signals grade a live
// worker into the suspect set:
//
//   - phi band: its phi-accrual score sits in [PhiThreshold/2, PhiThreshold) —
//     silent for longer than its own arrival history predicts, but not yet
//     provably gone (an owner typing, a latency ramp, asymmetric loss).
//   - exec-rate collapse: its reported task-execution rate fell below a
//     quarter of its own EWMA while it still holds work — a non-empty deque
//     or a live checkpoint stream — so the CPU is being taken by something
//     else (fractional owner usage, a straggler).
//   - steal-RTT growth: the round trips it reports grew far past its own
//     EWMA band — its link or its victims' links are degrading.
//   - exec-time growth: the per-task execution times it reports grew far
//     past its own EWMA band — a straggler or degrading CPU. This is the
//     signal that catches an idle-initiated thief (whose deque is empty by
//     construction, so the rate signal stays quiet) limping through the one
//     task it holds.
//   - fleet-relative straggler: its exec-time EWMA sits far above the
//     fleet median. Self-relative bands cannot see a worker that was slow
//     from its very first sample — a freshly joined worker on an
//     already-degraded machine baselines its own slowness as normal — so
//     this one compares across workers.
//
// The suspect set is broadcast to every live member (wire.SuspectSet) so
// thieves deprioritize suspect victims and victims speculatively redo work
// held by suspect thieves; a worker that stays suspect continuously past
// SuspectDrainAfter is ordered to drain (wire.DrainOrder), moving its deque
// and checkpoints to a healthy peer via the planned-migration path. All of
// it is advisory: a wrongly suspected worker loses steal traffic and may
// have a task redone in parallel — wasted work, never wrong answers.
package clearinghouse

import (
	"sort"
	"sync"
	"time"

	"phish/internal/stats"
	"phish/internal/telemetry"
	"phish/internal/types"
	"phish/internal/wire"
)

// healthTrack is the per-worker EWMA state behind the exec-rate and
// steal-RTT bands. Updated only when a fresh StatReport arrived since the
// last sweep.
type healthTrack struct {
	lastAt     time.Time
	execPrev   int64
	rttPrevSum int64
	rttPrevN   int64
	exTPrevSum int64
	exTPrevN   int64
	rateEW     float64 // tasks/sec
	rttEW      float64 // ns per steal round trip
	rttDevEW   float64
	exTEW      float64 // ns per task execution
	exTDevEW   float64
	samples    int
	// Consecutive-violation counters: one out-of-band sweep is a lumpy
	// task mix or an unlucky victim (a thief's steal RTT inflates when its
	// *victim* is slow), not degradation. A signal fires only after the
	// band is broken on consecutive sampled sweeps.
	rateBad int
	rttBad  int
	exTBad  int
}

// suspectEntry is one graded suspect.
type suspectEntry struct {
	Since     time.Time
	PhiMilli  int32
	Reason    string
	misses    int       // consecutive sweeps without a suspicion signal
	orderedAt time.Time // when the last DrainOrder was issued (zero: none)
}

// drainResend paces repeated DrainOrders to a suspect that stays both
// graded and live: the order is a single unacknowledged datagram to a
// machine whose network is, by hypothesis, degrading — sending it exactly
// once makes the whole drain path hostage to one packet.
const drainResend = 100 * time.Millisecond

// healthState holds the grading tables. The mutex exists for read-side
// consumers (ClusterSnapshot runs on any goroutine); all mutation happens
// on the Run goroutine via sweepHealth.
type healthState struct {
	mu       sync.Mutex
	tracks   map[types.WorkerID]*healthTrack
	suspects map[types.WorkerID]*suspectEntry
	// lastNonEmpty remembers whether the previous broadcast carried any
	// suspects, so one final empty SuspectSet is sent to clear the fleet.
	lastNonEmpty bool
}

// suspectMisses is how many consecutive signal-free sweeps clear an entry:
// one sweep of hysteresis so a score oscillating around the band does not
// flap the fleet's blacklists (the drain timer keys off Since, which a flap
// would reset).
const suspectMisses = 2

// suspicion is one sweep's observation about one worker.
type suspicion struct {
	phiMilli int32
	reason   string
}

// sweepHealth runs one grading pass: fold fresh reports into the EWMA
// tracks, merge the three signals into the suspect set, broadcast the set,
// and order drains for persistent suspects. Called from checkHeartbeats on
// the Run goroutine, without c.mu held.
func (c *Clearinghouse) sweepHealth(now time.Time) {
	if c.cfg.PhiThreshold <= 0 {
		return // grading rides the adaptive detector; fixed-timeout mode is binary
	}
	h := &c.health
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tracks == nil {
		h.tracks = make(map[types.WorkerID]*healthTrack)
		h.suspects = make(map[types.WorkerID]*suspectEntry)
	}

	live := make(map[types.WorkerID]bool)
	for _, id := range c.store.LiveIDs() {
		live[id] = true
	}
	observed := make(map[types.WorkerID]suspicion)

	// Signal 1: the phi band.
	phiOf := make(map[types.WorkerID]int32)
	suspectAt := c.cfg.PhiThreshold / 2
	for _, row := range c.store.Phis(now) {
		if !row.Warm {
			continue
		}
		phiOf[row.Worker] = int32(row.Phi * 1000)
		if row.Phi >= suspectAt {
			observed[row.Worker] = suspicion{phiMilli: int32(row.Phi * 1000), reason: "phi"}
		}
	}

	// Signals 2 and 3: per-worker EWMA bands over reported exec rate and
	// steal RTT.
	for _, r := range c.store.Reports() {
		id := r.Rep.Worker
		if !live[id] {
			continue
		}
		tk, ok := h.tracks[id]
		if !ok {
			tk = &healthTrack{}
			h.tracks[id] = tk
		}
		if !r.At.After(tk.lastAt) {
			continue // no fresh report since the last sweep
		}
		snap := stats.FromOrdered(r.Rep.Counters)
		var rttSum, rttN, exTSum, exTN int64
		for _, hs := range r.Rep.Hists {
			switch telemetry.HistKind(hs.Kind) {
			case telemetry.HistStealRTT:
				rttSum, rttN = hs.Sum, hs.Count
			case telemetry.HistTaskExec:
				exTSum, exTN = hs.Sum, hs.Count
			}
		}
		if tk.lastAt.IsZero() {
			tk.lastAt, tk.execPrev = r.At, snap.TasksExecuted
			tk.rttPrevSum, tk.rttPrevN = rttSum, rttN
			tk.exTPrevSum, tk.exTPrevN = exTSum, exTN
			continue
		}
		dt := r.At.Sub(tk.lastAt).Seconds()
		if dt <= 0 {
			continue
		}
		rate := float64(snap.TasksExecuted-tk.execPrev) / dt
		var rtt, exT float64
		if rttN > tk.rttPrevN {
			rtt = float64(rttSum-tk.rttPrevSum) / float64(rttN-tk.rttPrevN)
		}
		if exTN > tk.exTPrevN {
			exT = float64(exTSum-tk.exTPrevSum) / float64(exTN-tk.exTPrevN)
		}
		var rateViol, rttViol, exTViol bool
		if tk.samples >= 4 {
			// Held work but throughput collapsed: the workstation's cycles
			// went somewhere else. "Held" includes published checkpoints,
			// not just the deque — a worker grinding through its one stolen
			// task has an empty deque but a live checkpoint stream, and that
			// hostage task is the case this signal most needs to catch. With
			// task granularity near the sweep interval a single empty window
			// is routine, so this one needs three in a row.
			rateViol = (r.Rep.Deque > 0 || len(r.Rep.Ckpts) > 0) &&
				tk.rateEW > 0 && rate < tk.rateEW/4
			if rateViol {
				tk.rateBad++
			} else {
				tk.rateBad = 0
			}
			if rtt > 0 {
				rttViol = tk.rttEW > 0 && rtt > 2*tk.rttEW+3*tk.rttDevEW
				if rttViol {
					tk.rttBad++
				} else {
					tk.rttBad = 0
				}
			}
			if exT > 0 {
				exTViol = tk.exTEW > 0 && exT > 2*tk.exTEW+3*tk.exTDevEW
				if exTViol {
					tk.exTBad++
				} else {
					tk.exTBad = 0
				}
			}
			if _, sus := observed[id]; !sus {
				switch {
				case tk.rateBad >= 3:
					observed[id] = suspicion{phiMilli: phiOf[id], reason: "exec-rate"}
				case tk.rttBad >= 2:
					observed[id] = suspicion{phiMilli: phiOf[id], reason: "steal-rtt"}
				case tk.exTBad >= 2:
					observed[id] = suspicion{phiMilli: phiOf[id], reason: "exec-time"}
				}
			}
		}
		// A violating sample is evidence, not baseline: folding it into the
		// EWMA would teach the band to accept the degradation (the first slow
		// sample widens the band enough that the second no longer breaks it,
		// and the consecutive counter can never reach its threshold). Warm
		// tracks freeze the violated metric; cold tracks fold everything, so
		// a born-slow worker still builds the honest high EWMA the
		// fleet-relative straggler signal compares against.
		const alpha = 0.2
		if !rateViol {
			tk.rateEW += alpha * (rate - tk.rateEW)
		}
		if rtt > 0 && !rttViol {
			tk.rttDevEW += alpha * (absF(rtt-tk.rttEW) - tk.rttDevEW)
			tk.rttEW += alpha * (rtt - tk.rttEW)
		}
		if exT > 0 && !exTViol {
			tk.exTDevEW += alpha * (absF(exT-tk.exTEW) - tk.exTDevEW)
			tk.exTEW += alpha * (exT - tk.exTEW)
		}
		tk.samples++
		tk.lastAt, tk.execPrev = r.At, snap.TasksExecuted
		tk.rttPrevSum, tk.rttPrevN = rttSum, rttN
		tk.exTPrevSum, tk.exTPrevN = exTSum, exTN
	}

	// Signal 5: fleet-relative straggler. Needs enough of a fleet for a
	// median to mean anything; 4x is far outside same-hardware spread.
	var ews []float64
	for id, tk := range h.tracks {
		if live[id] && tk.exTEW > 0 {
			ews = append(ews, tk.exTEW)
		}
	}
	if len(ews) >= 3 {
		sort.Float64s(ews)
		if med := ews[len(ews)/2]; med > 0 {
			for id, tk := range h.tracks {
				if !live[id] || tk.exTEW <= 4*med {
					continue
				}
				if _, sus := observed[id]; !sus {
					observed[id] = suspicion{phiMilli: phiOf[id], reason: "straggler"}
				}
			}
		}
	}

	// Merge into the suspect set with hysteresis.
	for id, obs := range observed {
		if !live[id] {
			continue
		}
		if e, ok := h.suspects[id]; ok {
			e.PhiMilli, e.Reason, e.misses = obs.phiMilli, obs.reason, 0
		} else {
			h.suspects[id] = &suspectEntry{Since: now, PhiMilli: obs.phiMilli, Reason: obs.reason}
		}
	}
	for id, e := range h.suspects {
		if !live[id] {
			delete(h.suspects, id)
			continue
		}
		if _, ok := observed[id]; !ok {
			if e.misses++; e.misses >= suspectMisses {
				delete(h.suspects, id)
			}
		}
	}
	for id := range h.tracks {
		if !live[id] {
			delete(h.tracks, id)
		}
	}

	c.broadcastSuspectsLocked(now, live)
}

// broadcastSuspectsLocked ships the current suspect set to every live
// member (full replacement; workers decay it locally) and issues drain
// orders for persistent suspects. Caller holds health.mu.
func (c *Clearinghouse) broadcastSuspectsLocked(now time.Time, live map[types.WorkerID]bool) {
	h := &c.health
	if len(h.suspects) == 0 && !h.lastNonEmpty {
		return
	}
	set := wire.SuspectSet{}
	for id, e := range h.suspects {
		info := wire.SuspectInfo{Worker: id, PhiMilli: e.PhiMilli}
		if r, ok := c.store.ReportOf(id); ok {
			// The suspect's freshest published checkpoints ride along, so a
			// victim speculating on a task lent to it resumes from the blob.
			info.Ckpts = r.Rep.Ckpts
		}
		set.Suspects = append(set.Suspects, info)
	}
	sort.Slice(set.Suspects, func(i, j int) bool { return set.Suspects[i].Worker < set.Suspects[j].Worker })
	for id := range live {
		c.send(id, set)
	}
	h.lastNonEmpty = len(set.Suspects) > 0

	if c.cfg.SuspectDrainAfter <= 0 {
		return
	}
	rootHost := c.RootHost()
	for id, e := range h.suspects {
		if now.Sub(e.Since) < c.cfg.SuspectDrainAfter {
			continue
		}
		if !e.orderedAt.IsZero() && now.Sub(e.orderedAt) < drainResend {
			continue
		}
		if id == rootHost || len(live) <= 1 {
			// Never drain the root's host on suspicion alone, and a drain
			// with no adopter would just crash-report the state.
			continue
		}
		e.orderedAt = now
		c.send(id, wire.DrainOrder{Reason: "degraded: " + e.Reason})
	}
}

// suspectSnapshot returns the current suspect set for telemetry rollups.
func (c *Clearinghouse) suspectSnapshot() map[types.WorkerID]string {
	h := &c.health
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.suspects) == 0 {
		return nil
	}
	out := make(map[types.WorkerID]string, len(h.suspects))
	for id, e := range h.suspects {
		out[id] = e.Reason
	}
	return out
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
