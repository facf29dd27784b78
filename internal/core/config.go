// Package core implements Phish's micro-level, idle-initiated scheduler:
// the per-worker ready deque with LIFO execution and FIFO stealing, the
// continuation-passing task model with join counters, randomized work
// stealing between the participants of a job, thief retirement when a
// job's parallelism shrinks, task migration when a workstation's owner
// returns, and the steal-record machinery that lets lost work be redone
// after a crash.
//
// This is the paper's primary contribution (Section 2, micro level, and
// the worker side of Section 3).
package core

import (
	"time"

	"phish/internal/telemetry"
)

// Order selects the execution order of a worker's own ready tasks.
type Order int

const (
	// LIFO executes the most recently spawned ready task first (the
	// paper's choice: it keeps the working set small).
	LIFO Order = iota
	// FIFO executes the oldest ready task first (ablation only).
	FIFO
)

func (o Order) String() string {
	if o == LIFO {
		return "LIFO"
	}
	return "FIFO"
}

// StealEnd selects which end of the victim's deque a thief takes from.
type StealEnd int

const (
	// StealTail takes the oldest ready task (the paper's choice: for
	// tree-shaped computations it is a task near the base of the tree
	// that will spawn many descendants).
	StealTail StealEnd = iota
	// StealHead takes the newest ready task (ablation only).
	StealHead
)

func (e StealEnd) String() string {
	if e == StealTail {
		return "tail"
	}
	return "head"
}

// VictimPolicy selects how a thief chooses its victim.
type VictimPolicy int

const (
	// RandomVictim picks uniformly at random among the other live
	// participants (the paper's choice, backed by the Blumofe–Leiserson
	// analysis).
	RandomVictim VictimPolicy = iota
	// RoundRobinVictim cycles deterministically (ablation only).
	RoundRobinVictim
	// SiteAwareVictim prefers victims at the worker's own Site and only
	// crosses a network cut after repeated local failures — the paper's
	// planned heterogeneous-network extension ("preserve locality with
	// respect to those network cuts that have the least bandwidth").
	SiteAwareVictim
)

func (v VictimPolicy) String() string {
	switch v {
	case RandomVictim:
		return "random"
	case RoundRobinVictim:
		return "round-robin"
	default:
		return "site-aware"
	}
}

// Config tunes one worker. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// Seed seeds the worker's private random number generator (victim
	// selection). Workers of one job should use distinct seeds; the
	// runtime adds the worker ID.
	Seed int64

	// MaxStealFailures is the number of consecutive failed steal attempts
	// after which a worker concludes the job's parallelism has shrunk and
	// asks the clearinghouse for permission to retire. Zero means never
	// retire (used when measuring fixed-P speedup, where the paper also
	// pins the participant set).
	MaxStealFailures int

	// StealTimeout bounds how long a thief waits for a steal reply before
	// treating the attempt as failed (the victim may have departed).
	StealTimeout time.Duration

	// StealBackoff paces consecutive failed steal attempts: a thief whose
	// last attempt failed waits this long (scaled by the failure streak,
	// capped at 8x) before choosing the next victim. On the paper's
	// network the round-trip time provided this pacing for free; an
	// in-process fabric needs it to be explicit.
	StealBackoff time.Duration

	// HeartbeatEvery is the interval between heartbeats to the
	// clearinghouse. Zero disables heartbeats (explicit opt-out of crash
	// detection); the default sends one every 2 s — the paper's
	// clearinghouse-update interval — so the default clearinghouse
	// HeartbeatTimeout (3×) can declare crashes out of the box.
	HeartbeatEvery time.Duration

	// LocalOrder, StealFrom, and Victim select the scheduling discipline.
	// The defaults are the paper's; the alternatives exist for the
	// ablation benchmarks and the heterogeneous-network extension.
	LocalOrder Order
	StealFrom  StealEnd
	Victim     VictimPolicy

	// Metrics, when non-nil, records the worker's latency histograms
	// (steal round trip, task execution, registration) and enables the
	// deque-depth gauge in piggybacked stat reports. Nil disables the
	// telemetry plane; hot paths then pay at most one pointer check.
	Metrics *telemetry.Metrics

	// SpanTrace enables the distributed span recorder: the worker records
	// task-execution, steal-leg, checkpoint, drain, and redo spans for
	// sampled DAGs, and control spans (registration, outages, preemptions,
	// leaves, retransmits), and ships them to the clearinghouse collector
	// inside its StatReports. Off (the default), no recorder is allocated and
	// every recording site is one nil pointer check.
	SpanTrace bool
	// SpanSample is the probability that a job root spawned on this
	// worker is sampled; the decision propagates to the whole DAG through
	// trace contexts. Zero (or anything >= 1) samples every root.
	SpanSample float64
	// SpanBuf caps spans buffered between StatReports (default 8192);
	// beyond it spans are dropped and counted.
	SpanBuf int

	// Site is the worker's network neighborhood, used by SiteAwareVictim.
	Site int32

	// CkptEvery rate-limits unsolicited checkpoint publication to the
	// clearinghouse between heartbeats: at most one extra StatReport per
	// interval, sent only when a task yields a fresh blob. Zero means the
	// 50 ms default; negative disables unsolicited publishes (blobs then
	// ride only on the heartbeat cadence).
	CkptEvery time.Duration
	// NoCkpt disables the checkpoint surface: Yield saves nothing and
	// never preempts, so checkpointable tasks degrade to the redo-from-
	// scratch behavior (the benchmark baseline).
	NoCkpt bool

	// SuspectTTL is how long a worker keeps a peer on its suspect
	// blacklist after the last evidence against it — a clearinghouse
	// SuspectSet naming it, or a locally observed steal timeout. Suspect
	// victims are deprioritized (stolen from only when no healthy victim
	// exists) and suspect thieves are candidates for speculative redo.
	// Zero means max(3× HeartbeatEvery, 4× StealTimeout); negative
	// disables local blacklisting and SuspectSet tracking entirely.
	SuspectTTL time.Duration
	// SpeculateAfter is the K in the speculation rule: a task lent to a
	// suspect thief and outstanding for more than K× the p99 of its Fn's
	// local execution time is re-dispatched locally from its last
	// published checkpoint (the steal record's seq/dedup machinery keeps
	// results exactly-once; the loser's work is wasted, not wrong). Zero
	// means 4; negative disables speculation.
	SpeculateAfter float64
}

// suspectTTL resolves Config.SuspectTTL (see its comment).
func (c *Config) suspectTTL() time.Duration {
	switch {
	case c.SuspectTTL > 0:
		return c.SuspectTTL
	case c.SuspectTTL < 0:
		return 0
	}
	ttl := 3 * c.HeartbeatEvery
	if m := 4 * c.StealTimeout; m > ttl {
		ttl = m
	}
	return ttl
}

// speculateAfter resolves the speculation multiplier; 0 means disabled.
func (c *Config) speculateAfter() float64 {
	switch {
	case c.SpeculateAfter > 0:
		return c.SpeculateAfter
	case c.SpeculateAfter < 0:
		return 0
	}
	return 4
}

// retryUnsentEvery is how often the worker retries messages whose
// destination was temporarily unknown (e.g., mid-migration).
const retryUnsentEvery = 20 * time.Millisecond

// localStealTries is how many consecutive same-site failures a site-aware
// thief tolerates before it tries the whole network.
const localStealTries = 4

// defaultCkptEvery is the unsolicited checkpoint publication interval used
// when Config.CkptEvery is zero.
const defaultCkptEvery = 50 * time.Millisecond

// DefaultConfig is the paper's discipline with timeouts suitable for a LAN
// or an in-process fabric.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		MaxStealFailures: 0,
		StealTimeout:     200 * time.Millisecond,
		StealBackoff:     250 * time.Microsecond,
		HeartbeatEvery:   2 * time.Second,
		LocalOrder:       LIFO,
		StealFrom:        StealTail,
		Victim:           RandomVictim,
	}
}
