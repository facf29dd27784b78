package core

import "phish/internal/types"

// joinSlots is the size of the join table's array: a power of two, so a
// slot index is the low bits of a sequence number.
const joinSlots = 1024

// JoinTable holds a scheduler's waiting closures — successors whose join
// counter has not reached zero — and finds the one a result names: a Phish
// worker's, or a Strata processor's. Every result delivered locally looks a
// closure up here, and every successor is put here and deleted again, so on
// fib-like programs this is the scheduler's busiest table.
//
// A closure this worker minted lives in the array slot indexed by the low
// bits of its Seq: minting is sequential and a LIFO worker holds about as
// many waiting closures as its spawn tree is deep, so slots rarely collide
// (fib(30) on one worker: 1 % of puts). The map behind the array
// holds the rest — a closure whose slot was taken, and any closure minted
// elsewhere (adopted from a steal, migrated in, redone from a record).
//
// A lookup compares the full TaskID, never just the slot: a result for a
// closure that left (migrated, purged, completed and its slot reused) misses
// exactly as it would in a map, and cannot land in whatever closure sits in
// the slot now. An id is put at most once while it is present.
//
// Not safe for concurrent use: a worker's is its scheduler goroutine's
// alone, a Strata processor's is guarded by the processor's lock.
type JoinTable struct {
	owner types.WorkerID
	slots [joinSlots]*Closure
	used  int // non-nil slots
	more  map[types.TaskID]*Closure
}

// NewJoinTable returns an empty table for the closures owner mints.
func NewJoinTable(owner types.WorkerID) JoinTable {
	return JoinTable{owner: owner, more: make(map[types.TaskID]*Closure)}
}

// Put adds a waiting closure.
func (j *JoinTable) Put(cl *Closure) {
	if cl.ID.Worker == j.owner {
		if s := &j.slots[cl.ID.Seq%joinSlots]; *s == nil {
			*s = cl
			j.used++
			return
		}
	}
	j.more[cl.ID] = cl
}

// Get returns the waiting closure named id, or nil.
func (j *JoinTable) Get(id types.TaskID) *Closure {
	if cl := j.slots[id.Seq%joinSlots]; cl != nil && cl.ID == id {
		return cl
	}
	if len(j.more) == 0 {
		return nil
	}
	return j.more[id]
}

// Del removes cl, which must be in the table.
func (j *JoinTable) Del(cl *Closure) {
	if s := &j.slots[cl.ID.Seq%joinSlots]; *s == cl {
		*s = nil
		j.used--
		return
	}
	delete(j.more, cl.ID)
}

// len reports how many closures are waiting.
func (j *JoinTable) len() int { return j.used + len(j.more) }

// all returns every waiting closure, for the cold paths that walk the whole
// table (orphan purge, migration, snapshot, debug dump). The slice is the
// caller's: deleting while ranging over it is safe.
func (j *JoinTable) all() []*Closure {
	out := make([]*Closure, 0, j.len())
	if j.used > 0 {
		for _, cl := range j.slots {
			if cl != nil {
				out = append(out, cl)
			}
		}
	}
	for _, cl := range j.more {
		out = append(out, cl)
	}
	return out
}
