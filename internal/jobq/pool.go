// Package jobq implements the PhishJobQ: the macro-level scheduler's job
// pool (Section 3, Figure 2). Parallel jobs are submitted to the pool;
// idle workstations request work from it; assignment is non-preemptive
// round-robin over the pool, and — crucially — an assigned job STAYS in
// the pool, so other idle workstations keep joining it until it finishes.
// That is how the macro scheduler space-shares the network.
//
// Pool is the pure scheduling logic; Server/Client wrap it in a
// frame-per-request RPC over TCP for the distributed binaries. The
// simulated cluster calls Pool directly.
//
// The paper's workstation polls an empty pool every 30 seconds. Here a
// request may instead be held (Await): it is answered the moment a job
// arrives, and the paper's poll is what is left when the hold runs out.
package jobq

import (
	"sync"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

// Pool is the job pool. Safe for concurrent use.
type Pool struct {
	mu     sync.Mutex
	jobs   []wire.JobSpec
	next   int // the round-robin cursor: index of the job handed out next
	nextID types.JobID
	store  *store // disk backing; nil for in-memory pools (see store.go)
	// changed is closed, and replaced, by every Submit and Done: the
	// wake-up of every request held in Await.
	changed chan struct{}
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{nextID: 1, changed: make(chan struct{})}
}

// Submit adds a job and returns its assigned id (any id already present in
// the spec is replaced). Ids start at 1: a durable pool whose disk backing
// has failed (StoreErr) refuses the job and returns 0, since a restart
// would lose it.
func (p *Pool) Submit(spec wire.JobSpec) types.JobID {
	p.mu.Lock()
	defer p.mu.Unlock()
	spec.ID = p.nextID
	p.nextID++
	p.jobs = append(p.jobs, spec)
	if err := p.appendLocked(&storeRecord{Kind: sSubmit, Spec: spec, NextID: p.nextID}); err != nil {
		p.jobs = p.jobs[:len(p.jobs)-1]
		return 0
	}
	p.changeLocked()
	return spec.ID
}

// changeLocked wakes every held request.
func (p *Pool) changeLocked() {
	close(p.changed)
	p.changed = make(chan struct{})
}

// Done removes a finished job from the pool. Unknown ids are ignored
// (the job may have been removed by an earlier Done).
func (p *Pool) Done(id types.JobID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, j := range p.jobs {
		if j.ID == id {
			p.jobs = append(p.jobs[:i], p.jobs[i+1:]...)
			if p.next > i {
				p.next--
			}
			// A Done is not refused: the job is over either way. A failed
			// write stays in StoreErr and refuses every later Submit.
			_ = p.appendLocked(&storeRecord{Kind: sDone, ID: id})
			p.changeLocked()
			return
		}
	}
}

// Request hands out the next job in round-robin order. ok is false when
// the pool is empty (the workstation will retry, every 30 seconds in the
// paper).
func (p *Pool) Request() (spec wire.JobSpec, ok bool) { return p.take(0) }

// Await is Request held open. It hands out the next job other than skip
// (the job the workstation's last worker finished, which its submitter
// may not have retired yet; pool ids start at 1, so 0 skips nothing) the
// moment there is one: at once, or when a Submit or Done changes the pool.
// ok is false when hold fires or cancel closes first.
func (p *Pool) Await(skip types.JobID, hold <-chan time.Time, cancel <-chan struct{}) (spec wire.JobSpec, ok bool) {
	for {
		p.mu.Lock()
		spec, ok = p.takeLocked(skip)
		changed := p.changed
		p.mu.Unlock()
		if ok {
			return spec, true
		}
		select {
		case <-changed:
		case <-hold:
			return wire.JobSpec{}, false
		case <-cancel:
			return wire.JobSpec{}, false
		}
	}
}

func (p *Pool) take(skip types.JobID) (wire.JobSpec, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.takeLocked(skip)
}

// takeLocked picks the next job other than skip, round-robin: the cursor
// moves past every job it looks at, so the next request starts after it.
func (p *Pool) takeLocked(skip types.JobID) (spec wire.JobSpec, ok bool) {
	for range p.jobs {
		if p.next >= len(p.jobs) {
			p.next = 0
		}
		i := p.next
		p.next++
		if p.jobs[i].ID != skip {
			return p.jobs[i], true
		}
	}
	return wire.JobSpec{}, false
}

// List returns a copy of the pool contents.
func (p *Pool) List() []wire.JobSpec {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]wire.JobSpec, len(p.jobs))
	copy(out, p.jobs)
	return out
}

// Len returns the number of jobs in the pool.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.jobs)
}
