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
	"fmt"
	"sync"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

// Policy selects how the pool assigns jobs to requesting workstations.
// The paper's implementation is round-robin; the others are the "more
// sophisticated job assignment algorithms" its future work calls for.
type Policy int

const (
	// RoundRobin cycles through the pool (the paper's policy).
	RoundRobin Policy = iota
	// FirstComeFirstServed keeps assigning the oldest job until it
	// finishes — every idle workstation piles onto one job at a time.
	FirstComeFirstServed
	// PriorityFirst assigns the highest-priority job (ties: oldest);
	// all idle workstations serve the most important job.
	PriorityFirst
	// LeastServed assigns the job that has received the fewest
	// workstation grants so far — a fair-share policy.
	LeastServed
)

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case FirstComeFirstServed:
		return "fcfs"
	case PriorityFirst:
		return "priority"
	case LeastServed:
		return "least-served"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Pool is the job pool. Safe for concurrent use.
type Pool struct {
	mu     sync.Mutex
	jobs   []wire.JobSpec
	grants map[types.JobID]int64
	policy Policy
	next   int
	nextID types.JobID
	store  *store // disk backing; nil for in-memory pools (see store.go)
	// changed is closed, and replaced, by every Submit and Done: the
	// wake-up of every request held in Await.
	changed chan struct{}
}

// NewPool returns an empty round-robin pool.
func NewPool() *Pool {
	return &Pool{nextID: 1, grants: make(map[types.JobID]int64), changed: make(chan struct{})}
}

// NewPoolWithPolicy returns an empty pool using the given policy.
func NewPoolWithPolicy(p Policy) *Pool {
	pool := NewPool()
	pool.policy = p
	return pool
}

// Policy returns the pool's assignment policy.
func (p *Pool) Policy() Policy {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.policy
}

// Grants reports how many times job id has been assigned.
func (p *Pool) Grants(id types.JobID) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.grants[id]
}

// Submit adds a job and returns its assigned id (any id already present in
// the spec is replaced).
func (p *Pool) Submit(spec wire.JobSpec) types.JobID {
	p.mu.Lock()
	defer p.mu.Unlock()
	spec.ID = p.nextID
	p.nextID++
	p.jobs = append(p.jobs, spec)
	p.appendLocked(&storeRecord{Kind: sSubmit, Spec: spec, NextID: p.nextID})
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
			delete(p.grants, id)
			if p.next > i {
				p.next--
			}
			p.appendLocked(&storeRecord{Kind: sDone, ID: id})
			p.changeLocked()
			return
		}
	}
}

// Request hands out the next job per the pool's policy. ok is false when
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

// takeLocked picks the next job other than skip per the policy and counts
// the grant.
func (p *Pool) takeLocked(skip types.JobID) (spec wire.JobSpec, ok bool) {
	idx := -1
	switch p.policy {
	case RoundRobin:
		for range p.jobs {
			if p.next >= len(p.jobs) {
				p.next = 0
			}
			i := p.next
			p.next++
			if p.jobs[i].ID != skip {
				idx = i
				break
			}
		}
	default:
		for i, j := range p.jobs {
			if j.ID != skip && (idx < 0 || p.beforeLocked(j, p.jobs[idx])) {
				idx = i
			}
		}
	}
	if idx < 0 {
		return wire.JobSpec{}, false
	}
	spec = p.jobs[idx]
	p.grants[spec.ID]++
	return spec, true
}

// beforeLocked reports whether a is handed out before b, which precedes
// it in the pool, under every policy but RoundRobin.
func (p *Pool) beforeLocked(a, b wire.JobSpec) bool {
	switch p.policy {
	case PriorityFirst:
		return a.Priority > b.Priority
	case LeastServed:
		return p.grants[a.ID] < p.grants[b.ID]
	default: // FirstComeFirstServed
		return false
	}
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
