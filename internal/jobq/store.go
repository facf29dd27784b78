package jobq

import (
	"fmt"
	"os"

	"phish/internal/types"
	"phish/internal/wal"
	"phish/internal/wire"
)

// Durable pool storage: a snapshot+WAL in one append-only file
// (internal/wal framing). The file starts with a snapshot of the whole
// pool; each Submit and Done appends a delta; when the deltas pile up the
// file is compacted back to a single snapshot (written to a temp file and
// renamed into place, so a crash mid-compaction leaves the old log
// intact). Replaying snapshot-then-deltas rebuilds the pool a restarted
// PhishJobQ serves — submitted jobs and their ids survive the restart, so
// JobManagers polling through the outage resume exactly where they were.
// The round-robin cursor is not persisted: it influences only which job an
// idle workstation is handed next, and restarting the rotation is harmless.

// store record kinds.
const (
	sSnapshot = iota + 1
	sSubmit
	sDone
)

// storeRecord is the single wal record type; Kind selects the fields.
type storeRecord struct {
	Kind   int
	Jobs   []wire.JobSpec // sSnapshot
	NextID types.JobID    // sSnapshot, sSubmit (value after the submit)
	Spec   wire.JobSpec   // sSubmit, with its assigned ID
	ID     types.JobID    // sDone
}

// compactEvery bounds how many delta records accumulate before the log is
// rewritten as one snapshot.
const compactEvery = 256

// store is the pool's disk backing. All methods are called with the
// owning Pool's mutex held; errors are sticky: the pool refuses every
// later Submit (see Pool.Submit) and keeps serving the jobs it holds.
type store struct {
	f    *os.File
	path string
	recs int // records appended since the last snapshot
	err  error
}

// NewDurablePool opens (or creates) the pool log at path and replays it.
// The returned pool persists every Submit and Done.
func NewDurablePool(path string) (*Pool, error) {
	p := NewPool()
	if f, err := os.Open(path); err == nil {
		replayErr := wal.Replay(f, func(r *storeRecord) error {
			switch r.Kind {
			case sSnapshot:
				p.jobs = r.Jobs
				p.nextID = r.NextID
				p.next = 0
			case sSubmit:
				p.jobs = append(p.jobs, r.Spec)
				p.nextID = r.NextID
			case sDone:
				for i, j := range p.jobs {
					if j.ID == r.ID {
						p.jobs = append(p.jobs[:i], p.jobs[i+1:]...)
						break
					}
				}
			}
			return nil
		})
		_ = f.Close()
		if replayErr != nil {
			return nil, fmt.Errorf("jobq: replay %s: %w", path, replayErr)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("jobq: open pool log: %w", err)
	}
	st := &store{path: path}
	p.store = st
	// Compact on open: collapses any delta tail into one fresh snapshot
	// and leaves the file open for appending.
	if err := p.compactLocked(); err != nil {
		return nil, err
	}
	return p, nil
}

// CloseStore flushes and closes the pool's disk backing (no-op for pools
// without one). The pool keeps working in memory afterwards; reopen with
// NewDurablePool to resume from disk.
func (p *Pool) CloseStore() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.store == nil || p.store.f == nil {
		return nil
	}
	err := p.store.f.Close()
	p.store.f = nil
	return err
}

// StoreErr reports the sticky store write error, if any.
func (p *Pool) StoreErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.store == nil {
		return nil
	}
	return p.store.err
}

// appendLocked writes one delta record and compacts when the log has
// grown enough. It returns the sticky error when the record is not on disk;
// a failed compaction leaves a log that holds the record, and is sticky for
// the next one. A pool without a store, or one CloseStore closed, appends
// nothing and fails nothing. Callers hold p.mu.
func (p *Pool) appendLocked(rec *storeRecord) error {
	st := p.store
	if st == nil {
		return nil
	}
	if st.err != nil || st.f == nil {
		return st.err
	}
	if err := wal.Append(st.f, rec); err != nil {
		st.err = err
		return err
	}
	if err := st.f.Sync(); err != nil {
		st.err = err
		return err
	}
	st.recs++
	if st.recs >= compactEvery {
		if err := p.compactLocked(); err != nil {
			st.err = err
		}
	}
	return nil
}

// compactLocked rewrites the log as a single snapshot (wal.WriteFile) and
// reopens it for appending. Callers hold p.mu.
func (p *Pool) compactLocked() error {
	st := p.store
	if st == nil {
		return nil
	}
	snap := &storeRecord{
		Kind:   sSnapshot,
		Jobs:   append([]wire.JobSpec(nil), p.jobs...),
		NextID: p.nextID,
	}
	if err := wal.WriteFile(st.path, snap); err != nil {
		return fmt.Errorf("jobq: compact: %w", err)
	}
	if st.f != nil {
		_ = st.f.Close()
	}
	f, err := os.OpenFile(st.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		st.f = nil
		return fmt.Errorf("jobq: compact: reopen: %w", err)
	}
	st.f = f
	st.recs = 0
	return nil
}
