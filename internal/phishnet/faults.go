// Deterministic fault injection. A Faults instance sits under a transport
// (the in-memory Fabric via SetFaults, the UDP transport via its
// SetFaults) and decides, per message, whether
// to drop, duplicate, or delay it, and whether the (from, to) pair is
// currently partitioned.
//
// Determinism is the point: every ordered peer pair owns a private PRNG
// seeded from (Plan.Seed, from, to), so the verdict sequence for a pair
// depends only on the seed and that pair's message count — not on
// cross-pair interleaving, goroutine scheduling, or wall time. Two runs
// with the same seed and the same per-pair traffic make identical
// drop/duplicate/delay decisions.
package phishnet

import (
	"math/rand"
	"sync"
	"time"

	"phish/internal/types"
)

// FaultPlan configures a Faults instance. The zero plan injects nothing.
type FaultPlan struct {
	// Seed drives every probabilistic decision. Same seed, same traffic,
	// same faults.
	Seed int64
	// Drop is the probability a message is silently lost.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Delay, when non-zero, holds each message for Delay ± DelayJitter
	// before delivery. On the fabric the delayed message goes through the
	// latency pump, so unequal delays reorder messages naturally.
	Delay       time.Duration
	DelayJitter time.Duration
}

// Verdict is the per-message decision for one (from, to) send.
type Verdict struct {
	Drop      bool
	Duplicate bool
	Delay     time.Duration
}

// DropEvent records one injected or partition-induced loss (test
// diagnostics; recording is off unless enabled with RecordDrops).
type DropEvent struct {
	From, To types.WorkerID
	At       time.Time
}

// GrayFault is a gray-failure window for one worker: the peer is not dead,
// it is *worse* — its traffic sees latency that ramps up over time and
// probabilistic loss that may differ by direction (the classic failing-NIC
// shape: transmit path rotten, receive path fine). Loss injected here sits
// below the reliability layer, so the victim limps — retransmits,
// backed-off acks — rather than vanishing, which is exactly the case a
// fixed heartbeat timeout handles worst.
type GrayFault struct {
	// Start anchors the latency ramp; delay added to the worker's traffic
	// grows linearly from zero at Start to MaxDelay at Start+RampOver and
	// holds there. Zero MaxDelay means no added latency.
	Start    time.Time
	RampOver time.Duration
	MaxDelay time.Duration
	// LossOut and LossIn are the probabilities a datagram the worker sends
	// (respectively receives) is lost, on top of the plan's symmetric Drop.
	LossOut, LossIn float64
}

// delayAt returns the ramped extra latency at time t.
func (g *GrayFault) delayAt(t time.Time) time.Duration {
	if g.MaxDelay <= 0 || !t.After(g.Start) {
		return 0
	}
	if g.RampOver <= 0 || t.Sub(g.Start) >= g.RampOver {
		return g.MaxDelay
	}
	return time.Duration(float64(g.MaxDelay) * float64(t.Sub(g.Start)) / float64(g.RampOver))
}

// Faults makes deterministic per-message fault decisions and tracks
// dynamic partitions. Safe for concurrent use. Probabilistic verdicts are
// deterministic in (seed, per-pair traffic); gray-failure latency ramps
// are time-varying by definition and read the wall clock.
type Faults struct {
	plan FaultPlan

	mu     sync.Mutex
	pairs  map[pairKey]*rand.Rand
	cuts   map[pairKey]bool // symmetric: stored both ways
	gray   map[types.WorkerID]*GrayFault
	record bool
	drops  []DropEvent
}

type pairKey struct{ from, to types.WorkerID }

// NewFaults builds a Faults for plan.
func NewFaults(plan FaultPlan) *Faults {
	return &Faults{
		plan:  plan,
		pairs: make(map[pairKey]*rand.Rand),
		cuts:  make(map[pairKey]bool),
		gray:  make(map[types.WorkerID]*GrayFault),
	}
}

// SetGray opens (or replaces) a gray-failure window on id. Every message
// id sends or receives is judged against it until ClearGray.
func (f *Faults) SetGray(id types.WorkerID, g GrayFault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cp := g
	f.gray[id] = &cp
}

// ClearGray heals id's gray failure.
func (f *Faults) ClearGray(id types.WorkerID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.gray, id)
}

// pairRand returns the deterministic PRNG for the ordered pair, creating
// it on first use. Callers hold f.mu.
func (f *Faults) pairRand(k pairKey) *rand.Rand {
	r, ok := f.pairs[k]
	if !ok {
		// Mix the pair identity into the seed with two odd constants so
		// (1→2) and (2→1) — and (seed, pair) collisions in general — land
		// on unrelated streams.
		seed := f.plan.Seed + int64(k.from)*-0x61C8864680B583EB + int64(k.to)*0x6C62272E07BB0143
		r = rand.New(rand.NewSource(seed))
		f.pairs[k] = r
	}
	return r
}

// Judge decides the fate of one message from → to. It always consumes the
// same number of random draws regardless of the outcome, so a partition
// healing mid-run does not shift the pair's subsequent decisions.
func (f *Faults) Judge(from, to types.WorkerID) Verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := pairKey{from, to}
	r := f.pairRand(k)
	// Five draws, always, outcome-independent: a plan or gray window
	// changing mid-run must not shift the pair's subsequent decisions.
	dropRoll, dupRoll, jitRoll := r.Float64(), r.Float64(), r.Float64()
	grayOutRoll, grayInRoll := r.Float64(), r.Float64()
	var v Verdict
	if f.cutLocked(from, to) {
		v.Drop = true
	}
	if f.plan.Drop > 0 && dropRoll < f.plan.Drop {
		v.Drop = true
	}
	if f.plan.Duplicate > 0 && dupRoll < f.plan.Duplicate {
		v.Duplicate = true
	}
	if f.plan.Delay > 0 {
		v.Delay = f.plan.Delay
		if f.plan.DelayJitter > 0 {
			v.Delay += time.Duration((2*jitRoll - 1) * float64(f.plan.DelayJitter))
			if v.Delay < 0 {
				v.Delay = 0
			}
		}
	}
	// Gray windows: the sender's outbound shape and the receiver's inbound
	// shape both apply; latency ramps stack.
	if len(f.gray) > 0 {
		now := time.Now()
		if g := f.gray[from]; g != nil {
			if g.LossOut > 0 && grayOutRoll < g.LossOut {
				v.Drop = true
			}
			v.Delay += g.delayAt(now)
		}
		if g := f.gray[to]; g != nil {
			if g.LossIn > 0 && grayInRoll < g.LossIn {
				v.Drop = true
			}
			v.Delay += g.delayAt(now)
		}
	}
	if v.Drop && f.record {
		f.drops = append(f.drops, DropEvent{From: from, To: to, At: time.Now()})
	}
	return v
}

// Partitioned reports whether traffic from → to is currently cut.
func (f *Faults) Partitioned(from, to types.WorkerID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cutLocked(from, to)
}

// Partition cuts traffic between a and b in both directions.
func (f *Faults) Partition(a, b types.WorkerID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cuts[pairKey{a, b}] = true
	f.cuts[pairKey{b, a}] = true
}

// Heal restores traffic between a and b.
func (f *Faults) Heal(a, b types.WorkerID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.cuts, pairKey{a, b})
	delete(f.cuts, pairKey{b, a})
}

// Isolate cuts id off from everyone: any pair involving id is dropped.
// Implemented as a wildcard so it also covers peers that first appear
// after the call.
func (f *Faults) Isolate(id types.WorkerID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cuts[pairKey{id, wildcardPeer}] = true
	f.cuts[pairKey{wildcardPeer, id}] = true
}

// Rejoin undoes Isolate (pairwise Partition cuts, if any, remain).
func (f *Faults) Rejoin(id types.WorkerID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.cuts, pairKey{id, wildcardPeer})
	delete(f.cuts, pairKey{wildcardPeer, id})
}

// HealAll clears every partition, isolation, and gray window.
func (f *Faults) HealAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cuts = make(map[pairKey]bool)
	f.gray = make(map[types.WorkerID]*GrayFault)
}

// wildcardPeer marks an Isolate entry; no real worker uses this id.
const wildcardPeer types.WorkerID = -1 << 30

// cut reports whether the ordered pair is severed, honoring wildcards.
// Callers hold f.mu.
func (f *Faults) cutLocked(from, to types.WorkerID) bool {
	return f.cuts[pairKey{from, to}] ||
		f.cuts[pairKey{from, wildcardPeer}] || f.cuts[pairKey{wildcardPeer, from}] ||
		f.cuts[pairKey{to, wildcardPeer}] || f.cuts[pairKey{wildcardPeer, to}]
}

// RecordDrops toggles drop-event recording (for tests).
func (f *Faults) RecordDrops(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.record = on
	if !on {
		f.drops = nil
	}
}

// Drops returns a copy of the recorded drop events.
func (f *Faults) Drops() []DropEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]DropEvent, len(f.drops))
	copy(out, f.drops)
	return out
}
