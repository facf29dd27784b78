package clearinghouse

import (
	"errors"
	"fmt"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

// Checkpointing — the paper's "support for checkpointing" future-work
// item. A checkpoint is one quiesce, coordinated by the clearinghouse, in
// rounds: each round pauses every worker (it keeps processing messages but
// executes and steals nothing), and every worker answers with its per-peer
// message counts and a dump of its closures and steal records — the same
// representation migration uses. A paused worker's task state changes
// only by a counted message, so when the global send/receive matrix
// balances and equals the previous round's, no task state is in flight
// anywhere and the round's dumps are the checkpoint.
//
// The bundle is a RecoveredJob with no members, the state a journal
// replays to (journal.go): WriteJournal stores it as a journal of two
// records, ReplayJournal reads it back, and NewFromRecovery resumes it.
// That hands each registering worker one departed worker's bundle (as an
// ordinary migration from a tombstoned id), so the routing invariant that
// argument-receiving state only moves with its minting worker is
// preserved, and the job continues where it left off.

// ckptState tracks an in-progress checkpoint inside the clearinghouse.
type ckptState struct {
	seq     uint64
	workers map[types.WorkerID]bool
	snaps   map[types.WorkerID]wire.SnapshotReply
	aborted bool
}

// ErrCheckpointAborted reports that membership changed mid-checkpoint.
var ErrCheckpointAborted = errors.New("clearinghouse: membership changed during checkpoint")

// Checkpoint quiesces the job, snapshots every participant, resumes them,
// and returns the job as NewFromRecovery resumes it. It fails if the job
// is already done, if a worker joins or leaves mid-checkpoint, or if the
// quiesce does not converge within the timeout.
func (c *Clearinghouse) Checkpoint(timeout time.Duration) (*RecoveredJob, error) {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return nil, errors.New("clearinghouse: job already complete")
	}
	if c.ckpt != nil {
		c.mu.Unlock()
		return nil, errors.New("clearinghouse: checkpoint already in progress")
	}
	workers := make(map[types.WorkerID]bool)
	for _, id := range c.store.LiveIDs() {
		workers[id] = true
	}
	if len(workers) == 0 {
		c.mu.Unlock()
		return nil, errors.New("clearinghouse: no live workers to checkpoint")
	}
	st := &ckptState{workers: workers}
	c.ckpt = st
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		c.ckpt = nil
		for id := range workers {
			c.send(id, wire.Resume{Seq: st.seq})
		}
		c.mu.Unlock()
	}()

	deadline := time.Now().Add(timeout)
	var prev map[types.WorkerID]wire.SnapshotReply
	for {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("clearinghouse: quiesce did not converge within %v", timeout)
		}
		c.mu.Lock()
		if st.aborted || c.done {
			c.mu.Unlock()
			return nil, ErrCheckpointAborted
		}
		c.ckptSeq++
		st.seq = c.ckptSeq
		st.snaps = make(map[types.WorkerID]wire.SnapshotReply)
		for id := range workers {
			c.send(id, wire.Pause{Seq: st.seq})
		}
		c.mu.Unlock()

		if !c.waitRound(st, deadline) {
			continue
		}
		c.mu.Lock()
		cur := st.snaps
		var cp *RecoveredJob
		if !st.aborted && matrixBalanced(workers, cur) && prev != nil && sameMatrix(workers, prev, cur) {
			cp = c.bundle(cur)
		}
		prev = cur
		c.mu.Unlock()
		if cp != nil {
			return cp, nil
		}
	}
}

// bundle turns the replies of the round that proved quiescence into the
// job NewFromRecovery resumes (c.mu held). No member is carried over: every
// participant of the resumed job is a new registrant, and the root starts
// wherever its holder's bundle goes.
func (c *Clearinghouse) bundle(snaps map[types.WorkerID]wire.SnapshotReply) *RecoveredJob {
	cp := &RecoveredJob{Spec: c.spec, RootHost: types.NoWorker, RestoreRoot: c.rootHost}
	for _, snap := range snaps {
		// Mark every record confirmed: the quiesce proved no replies are
		// in flight, so each stolen copy is in some bundle. The counts
		// proved it and are not part of the state.
		for i := range snap.Records {
			snap.Records[i].Confirmed = true
		}
		snap.SentTo, snap.RecvFr = nil, nil
		cp.Restore = append(cp.Restore, snap)
	}
	return cp
}

// waitRound polls until every participant has answered the current
// round, the deadline passes, or the checkpoint aborts; it reports whether
// every participant answered.
func (c *Clearinghouse) waitRound(st *ckptState, deadline time.Time) bool {
	for time.Now().Before(deadline) {
		c.mu.Lock()
		ok := len(st.snaps) == len(st.workers)
		aborted := st.aborted || c.done
		c.mu.Unlock()
		if ok {
			return true
		}
		if aborted {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// matrixBalanced reports whether every pair's send count equals the
// peer's receive count (no messages in flight between live workers).
func matrixBalanced(workers map[types.WorkerID]bool, reps map[types.WorkerID]wire.SnapshotReply) bool {
	for i := range workers {
		ai, ok := reps[i]
		if !ok {
			return false
		}
		for j := range workers {
			if i == j {
				continue
			}
			aj, ok := reps[j]
			if !ok {
				return false
			}
			if ai.SentTo[j] != aj.RecvFr[i] {
				return false
			}
		}
	}
	return true
}

// sameMatrix reports whether two rounds of replies carry identical counts.
func sameMatrix(workers map[types.WorkerID]bool, a, b map[types.WorkerID]wire.SnapshotReply) bool {
	for i := range workers {
		ai, oka := a[i]
		bi, okb := b[i]
		if !oka || !okb {
			return false
		}
		for j := range workers {
			if ai.SentTo[j] != bi.SentTo[j] || ai.RecvFr[j] != bi.RecvFr[j] {
				return false
			}
		}
	}
	return true
}
