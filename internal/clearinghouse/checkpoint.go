package clearinghouse

import (
	"errors"
	"fmt"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

// Checkpointing — the paper's "support for checkpointing" future-work
// item. A checkpoint is taken in two phases coordinated by the
// clearinghouse:
//
//  1. Quiesce: every worker is paused (it keeps processing messages but
//     executes and steals nothing) and reports its per-peer message
//     counts. When the global send/receive matrix balances twice in a
//     row, no task state is in flight anywhere.
//  2. Snapshot: every worker dumps its closures and steal records — the
//     same representation migration uses — and the clearinghouse bundles
//     them with the job spec.
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
	acks    map[types.WorkerID]wire.PauseAck
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
	c.ckptSeq++
	st := &ckptState{
		seq:     c.ckptSeq,
		workers: workers,
		acks:    make(map[types.WorkerID]wire.PauseAck),
		snaps:   make(map[types.WorkerID]wire.SnapshotReply),
	}
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

	// Phase 1: pause and wait for the message matrix to balance twice.
	var prev map[types.WorkerID]wire.PauseAck
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
		st.acks = make(map[types.WorkerID]wire.PauseAck)
		for id := range workers {
			c.send(id, wire.Pause{Seq: st.seq})
		}
		c.mu.Unlock()

		if !c.waitCkpt(deadline, func() bool { return len(st.acks) == len(workers) }) {
			continue
		}
		c.mu.Lock()
		cur := st.acks
		balanced := matrixBalanced(workers, cur)
		same := prev != nil && sameMatrix(workers, prev, cur)
		prev = cur
		c.mu.Unlock()
		if balanced && same {
			break
		}
	}

	// Phase 2: collect snapshots.
	c.mu.Lock()
	c.ckptSeq++
	st.seq = c.ckptSeq
	for id := range workers {
		c.send(id, wire.SnapshotRequest{Seq: st.seq})
	}
	c.mu.Unlock()
	if !c.waitCkpt(deadline, func() bool { return len(st.snaps) == len(workers) }) {
		return nil, fmt.Errorf("clearinghouse: snapshot collection timed out")
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if st.aborted {
		return nil, ErrCheckpointAborted
	}
	// No member is carried over: every participant of the resumed job is a
	// new registrant, and the root starts wherever its holder's bundle goes.
	cp := &RecoveredJob{Spec: c.spec, RootHost: types.NoWorker, RestoreRoot: c.rootHost}
	for _, snap := range st.snaps {
		// Mark every record confirmed: the quiesce proved no replies are
		// in flight, so each stolen copy is in some bundle.
		for i := range snap.Records {
			snap.Records[i].Confirmed = true
		}
		cp.Restore = append(cp.Restore, snap)
	}
	return cp, nil
}

// waitCkpt polls (under the clearinghouse lock) until cond holds, the
// deadline passes, or the checkpoint aborts; it reports whether cond held.
func (c *Clearinghouse) waitCkpt(deadline time.Time, cond func() bool) bool {
	for time.Now().Before(deadline) {
		c.mu.Lock()
		ok := cond()
		aborted := c.ckpt == nil || c.ckpt.aborted || c.done
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
func matrixBalanced(workers map[types.WorkerID]bool, acks map[types.WorkerID]wire.PauseAck) bool {
	for i := range workers {
		ai, ok := acks[i]
		if !ok {
			return false
		}
		for j := range workers {
			if i == j {
				continue
			}
			aj, ok := acks[j]
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

// sameMatrix reports whether two rounds of acks carry identical counts.
func sameMatrix(workers map[types.WorkerID]bool, a, b map[types.WorkerID]wire.PauseAck) bool {
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
