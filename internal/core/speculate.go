// Worker-side graded health: the decaying suspect blacklist and the
// speculative-redo rule. The clearinghouse grades the fleet (see
// clearinghouse/health.go) and broadcasts the suspect set; each worker
// merges that with its own evidence (steal timeouts) into an
// expiry-stamped blacklist. Suspect victims are stolen from only when no
// healthy victim exists, and a task lent to a suspect thief that stays
// outstanding past K× the Fn's p99 local execution time is redone from its
// last published checkpoint without waiting for a crash declaration. The
// steal record funnels both results through one dedup point, so a wrong
// suspicion wastes the loser's work but never duplicates an answer.
package core

import (
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

// execStats is one Fn's execution-time track: EWMA mean and mean absolute
// deviation, from which the speculation rule approximates p99 as
// mean + 3×dev (exact enough for a threshold that is then multiplied by
// K anyway). Scheduler goroutine only.
type execStats struct {
	mean float64 // ns
	dev  float64 // ns, EWMA of |sample - mean|
	n    int64
}

// execWarmup is how many completed executions an Fn needs before its p99
// estimate may trigger speculation.
const execWarmup = 8

func (e *execStats) observe(d time.Duration) {
	x := float64(d)
	if e.n == 0 {
		e.mean = x
	} else {
		const alpha = 0.2
		e.dev += alpha * (absNS(x-e.mean) - e.dev)
		e.mean += alpha * (x - e.mean)
	}
	e.n++
}

func (e *execStats) warm() bool { return e.n >= execWarmup }

func (e *execStats) p99() time.Duration { return time.Duration(e.mean + 3*e.dev) }

// fnEntry is what the worker knows about one Fn: the program lookup,
// memoized, and the execution-time track, side by side so that running a
// task costs one FnTable resolution. Scheduler goroutine only.
type fnEntry struct {
	fn   TaskFunc
	exec execStats
}

// fineGrain is the mean execution time below which a warm Fn is no longer
// timed on every execution: under it two clock readings cost a noticeable
// share of the task itself, and the speculation deadline such an Fn would
// earn is floored at StealTimeout anyway (maybeSpeculate), so its track
// only has to stay warm. timedEvery is the sampling period then: every
// timedEvery-th task a worker runs is timed whatever its Fn.
const (
	fineGrain  = 2 * time.Microsecond
	timedEvery = 64
)

// suspectMark is one blacklist entry. Suspicion has two tiers: local
// evidence (a steal timeout — one lost packet) only deprioritizes the peer
// as a victim, while the clearinghouse's graded verdict (EWMA bands plus
// hysteresis behind a SuspectSet broadcast) additionally arms speculative
// redo against the peer. The weak tier never erases the strong one.
type suspectMark struct {
	exp    time.Time
	graded bool
}

// isSuspect reports whether id is currently blacklisted, lazily expiring
// stale entries (the decay half of the blacklist).
func (w *Worker) isSuspect(id types.WorkerID, now time.Time) bool {
	m, ok := w.suspect[id]
	if !ok {
		return false
	}
	if now.After(m.exp) {
		delete(w.suspect, id)
		return false
	}
	return true
}

// isGradedSuspect reports whether id is blacklisted on the clearinghouse's
// graded verdict — the only tier that licenses speculative redo.
func (w *Worker) isGradedSuspect(id types.WorkerID, now time.Time) bool {
	return w.isSuspect(id, now) && w.suspect[id].graded
}

// markSuspect blacklists id for one TTL from now. No-op when blacklisting
// is disabled.
func (w *Worker) markSuspect(id types.WorkerID, now time.Time, graded bool) {
	ttl := w.cfg.suspectTTL()
	if ttl <= 0 || id == w.id {
		return
	}
	w.suspect[id] = suspectMark{exp: now.Add(ttl), graded: graded || w.suspect[id].graded}
}

// onSuspectSet merges a clearinghouse suspicion broadcast: every named
// suspect is (re)stamped for one TTL — entries the clearinghouse stopped
// naming decay on their own expiry, so local evidence is never erased by a
// calmer broadcast — and steal records lent to a suspect are refreshed
// from its freshest published checkpoints so a speculation resumes from
// the blob instead of from zero.
func (w *Worker) onSuspectSet(p wire.SuspectSet) {
	if w.cfg.suspectTTL() <= 0 {
		return
	}
	now := time.Now()
	for _, s := range p.Suspects {
		if s.Worker == w.id {
			continue // the fleet may doubt us; we know we are here
		}
		w.markSuspect(s.Worker, now, true)
		w.refreshRecordCkpts(s.Worker, s.Ckpts)
	}
	w.maybeSpeculate()
}

// refreshRecordCkpts updates the local copies of tasks lent to thief with
// any newer published checkpoint blobs: ahead of any crash when thief is
// a suspect, and before the redo when thief is down.
func (w *Worker) refreshRecordCkpts(thief types.WorkerID, ckpts []wire.TaskCkpt) {
	if len(ckpts) == 0 {
		return
	}
	byTask := make(map[types.TaskID]wire.TaskCkpt, len(ckpts))
	for _, ck := range ckpts {
		byTask[ck.Task] = ck
	}
	for _, rec := range w.records {
		if rec.thief != thief {
			continue
		}
		if ck, ok := byTask[rec.task.ID]; ok && ck.Seq > rec.task.CkptSeq {
			rec.task.Ckpt = append([]byte(nil), ck.Data...)
			rec.task.CkptSeq = ck.Seq
		}
	}
}

// healthyOf filters suspects out of a victim list, reusing scratch. When
// every candidate is suspect the full list is returned — a degraded victim
// beats starvation, the deprioritization is advisory.
func (w *Worker) healthyOf(in []types.WorkerID, scratch *[]types.WorkerID) []types.WorkerID {
	if len(w.suspect) == 0 || len(in) == 0 {
		return in
	}
	now := time.Now()
	out := (*scratch)[:0]
	for _, v := range in {
		if !w.isSuspect(v, now) {
			out = append(out, v)
		}
	}
	*scratch = out
	if len(out) == 0 {
		return in
	}
	return out
}

// maybeSpeculate scans the steal records for tasks held by suspect thieves
// past the speculation deadline and redoes them locally. Internally paced;
// cheap (three comparisons, no clock reading) when there is nothing to do.
// Scheduler goroutine only.
func (w *Worker) maybeSpeculate() {
	k := w.cfg.speculateAfter()
	if k <= 0 || len(w.suspect) == 0 || len(w.records) == 0 {
		return
	}
	now := w.clk.Now()
	every := w.cfg.StealTimeout / 2
	if every < 5*time.Millisecond {
		every = 5 * time.Millisecond
	}
	if now.Sub(w.lastSpecScan) < every {
		return
	}
	w.lastSpecScan = now
	redone := 0
	for _, rec := range w.records {
		// Confirmed steals only: an unconfirmed record has its own
		// lost-reply machinery (view tombstones, WorkerDown), and a thief
		// that never acked is not "holding" the task in any provable sense.
		if rec.thief == w.id || !rec.confirmed || rec.grantedAt.IsZero() {
			continue
		}
		if !w.isGradedSuspect(rec.thief, now) {
			continue
		}
		e := w.fns.entry(rec.task.Fn)
		if !e.exec.warm() {
			continue // never ran this Fn locally: no deadline to hold it to
		}
		deadline := time.Duration(k * float64(e.exec.p99()))
		// Floor at the steal timeout: however fast the Fn, the thief needed
		// at least a round trip plus queueing before "still outstanding"
		// means anything.
		if deadline < w.cfg.StealTimeout {
			deadline = w.cfg.StealTimeout
		}
		if now.Sub(rec.grantedAt) < deadline {
			continue
		}
		w.counters.SpeculativeRedos.Add(1)
		w.redoRecord(rec)
		redone++
	}
	if redone > 0 {
		w.counters.RedoBatches.Add(1)
	}
}

func absNS(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
