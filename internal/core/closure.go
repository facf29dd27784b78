package core

import (
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

// Closure is one task instance: a function name, argument slots, a join
// counter of still-missing arguments, and the continuation its result
// feeds. A closure is *ready* when Missing == 0; ready closures live in
// the worker's deque, waiting ones in its waiting table.
//
// A recycled closure is cleared only of what its next tenant reads. Every
// closure comes from a ClosurePool and is filled by one of three creators:
//
//   - spawn (Spawn, Spawn1, the root) writes Args, ID, Fn, Cont, NoSteal, TC;
//   - SuccessorCont writes ID, Fn, Args, Missing, Cont, TC;
//   - closureFromView and closureFromWire (steal, migration, redo) write
//     ID, Fn, Args, Missing, Cont, NoSteal, TC, CkptSeq and a Ckpt blob
//     when there is one.
//
// (Strata's spawn and successor write ID, Fn, Args, Cont and, for the
// successor, Missing; Strata reads nothing else.) Each writes Args only up
// to their length. ClosurePool.Put therefore resets exactly the fields some
// creator leaves alone — Missing, NoSteal, CkptSeq, Ckpt's length and the
// local-only fields below — and nils Args up to their length, which keeps
// every slot past the length nil. A new field that not every creator writes
// must be reset there too.
type Closure struct {
	ID      types.TaskID
	Fn      string
	Args    []types.Value
	Missing int32
	Cont    types.Continuation
	// NoSteal pins the closure to its worker (set on the root task).
	NoSteal bool
	// Ckpt is the task's latest checkpoint blob (nil unless the body
	// yielded one). It travels with the closure on steal, migration, and
	// redo; the body reads it back through Ctx.Checkpoint.
	Ckpt []byte
	// CkptSeq orders blobs for the same task: higher wins.
	CkptSeq uint64
	// TC is the task's trace context (parent span and sampling flags),
	// inherited from the spawning task and carried across steals,
	// migrations, and redos.
	TC wire.TraceCtx
	// preempted marks a closure vacated at a Yield on this worker and
	// requeued locally; its next execute is a continuation of the same
	// attempt, not a fresh execution, so the counters don't recount it.
	// Local-only: it does not travel the wire.
	preempted bool
	// timed is decided on the first slice of a local attempt (see
	// Worker.execute): a timed attempt reads the clock around every slice,
	// an untimed one around none. execNS accumulates a timed attempt's
	// execution time across its slices (a checkpointing body yields between
	// slices), and freshLocal records that the attempt started from scratch
	// here — together they let completion report the Fn's full local cost
	// to the speculation track even for bodies that checkpoint mid-run.
	// Local-only.
	timed      bool
	execNS     int64
	freshLocal bool
	// adopted marks a closure won by a steal that this worker has not run
	// yet. While it is set the closure is not grantable: a thief's request
	// that was already queued here when the reply landed would otherwise
	// take the task straight back, and two idle workers would bounce the
	// last ready closure between them, one steal record per hop.
	// Local-only: cleared by execute, dropped by migration.
	adopted bool
	// published marks a closure with an entry in this worker's checkpoint
	// publication table (Worker.publishCkpt), to be dropped when the task
	// completes or leaves. Local-only.
	published bool
}

// ready reports whether all argument slots are filled.
func (c *Closure) ready() bool { return c.Missing == 0 }

// maxFreeClosures bounds a closure pool, maxFreeArgs the argument capacity
// and maxFreeCkpt the checkpoint-buffer capacity a pooled closure may keep:
// a deque that was once 20 000 leaves deep, a 20 000-slot join, or a task
// that once saved a 64 KB blob must not pin that memory for the rest of the
// scheduler's life. What does not fit goes to the collector.
const (
	maxFreeClosures = 1024
	maxFreeArgs     = 64
	maxFreeCkpt     = 1024
)

// ClosurePool is one scheduler goroutine's free list of closures: a Phish
// worker's or a Strata processor's. The spawn→synch→execute cycle creates
// one closure per task — by far the scheduler's hottest allocation — and
// the goroutine that runs a task is the one that frees it, so the list is
// a plain slice: no lock, no per-P cache. A closure may be freed into a
// different pool from the one it came out of. Not safe for concurrent use.
type ClosurePool struct {
	free []*Closure
}

// Get returns a closure for one of the creators above, recycled when the
// pool has one. A recycled closure's Args slice and Ckpt buffer keep the
// capacity they had in its previous life (both empty), so a checkpointing
// task's first Yield copies its blob into memory the previous task's last
// Yield used.
func (p *ClosurePool) Get() *Closure {
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	return new(Closure)
}

// Put recycles c, resetting what the next tenant reads (see Closure). The
// caller must be the closure's only remaining referent (executed,
// stolen-and-shipped, migrated or purged). Argument slots are nilled so a
// pooled closure does not pin application data against the collector, and
// so that recycled capacity comes back clean: the join path takes a
// non-nil slot for a duplicate delivery. Slots past the length are nil
// already.
func (p *ClosurePool) Put(c *Closure) {
	if cap(c.Args) > maxFreeArgs {
		c.Args = nil
	} else {
		// Not `for i := range`: the compiler turns that into a runtime
		// memclr call, which costs more than the one or two stores it saves.
		for i := 0; i < len(c.Args); i++ {
			c.Args[i] = nil
		}
		c.Args = c.Args[:0]
	}
	if cap(c.Ckpt) > maxFreeCkpt {
		c.Ckpt = nil
	} else {
		c.Ckpt = c.Ckpt[:0]
	}
	c.Missing, c.NoSteal, c.CkptSeq = 0, false, 0
	c.preempted, c.timed, c.execNS, c.freshLocal, c.adopted, c.published = false, false, 0, false, false, false
	if len(p.free) < maxFreeClosures {
		p.free = append(p.free, c)
	}
}

// setArgs fills the closure's argument slots with a copy of args, reusing
// the existing backing array when it is large enough. The values are not
// copied: a spawn hands its child what the body gave it.
func (c *Closure) setArgs(args []types.Value) {
	c.Args = append(c.Args[:0], args...)
}

// growArgs sizes a pooled closure for n empty (nil) argument slots. Its
// capacity is nil throughout (ClosurePool.Put), and that matters: the join
// path uses a non-nil slot to detect duplicate deliveries.
func (c *Closure) growArgs(n int) {
	if cap(c.Args) < n {
		c.Args = make([]types.Value, n)
		return
	}
	c.Args = c.Args[:n]
}

// setCkpt installs a newer checkpoint blob, copying it (into the buffer the
// closure already has, when that is large enough) so the closure never
// aliases application memory.
func (c *Closure) setCkpt(blob []byte, seq uint64) {
	c.Ckpt = append(c.Ckpt[:0], blob...)
	c.CkptSeq = seq
}

// owned returns v as a value a task may change in place: a copy of it
// (wire.CopyValue) when it is mutable, v itself when it is not. A value the
// codec cannot copy, an unregistered opaque type, could not cross a socket
// either; in process it stays shared.
func owned(v types.Value) types.Value {
	if cp, err := wire.CopyValue(v); err == nil {
		return cp
	}
	return v
}

// toWire converts for transmission (steal, migration, redo copies, a
// checkpoint's snapshot). The wire closure owns its argument values: a
// snapshot is written out after the job resumes, and must not read what the
// live closure's task has since changed in place.
func (c *Closure) toWire() wire.Closure {
	args := make([]types.Value, len(c.Args))
	for i, v := range c.Args {
		args[i] = owned(v)
	}
	wc := wire.Closure{
		ID:      c.ID,
		Fn:      c.Fn,
		Args:    args,
		Missing: c.Missing,
		Cont:    c.Cont,
		NoSteal: c.NoSteal,
		CkptSeq: c.CkptSeq,
		TC:      c.TC,
	}
	if len(c.Ckpt) > 0 {
		wc.Ckpt = append([]byte(nil), c.Ckpt...)
	}
	return wc
}

// closureFromView adopts a zero-copy closure view into a recycled closure,
// copying every field out of the arena-backed frame: after this the
// closure owns its data and the view can be freed. Args decode straight
// onto the recycled closure's backing array.
func (w *Worker) closureFromView(v wire.ClosureView) (*Closure, error) {
	c := w.closures.Get()
	c.ID = v.ID()
	c.Fn = v.Fn()
	args, err := v.AppendArgs(c.Args[:0])
	c.Args = args
	if err != nil {
		w.closures.Put(c)
		return nil, err
	}
	c.Missing = v.Missing()
	c.Cont = v.Cont()
	c.NoSteal = v.NoSteal()
	c.TC = v.TC()
	if blob, ok := v.Ckpt(); ok {
		c.setCkpt(blob, v.CkptSeq())
	} else {
		c.CkptSeq = v.CkptSeq()
	}
	return c, nil
}

// closureFromWire converts an inbound wire closure into a recycled closure
// that owns its argument values, as closureFromView's does. On the
// in-memory fabric the wire closure is the one a victim keeps in its steal
// record, or a Migrate's; a task that changed a shared argument in place
// would change what a redo from that record reads.
func (w *Worker) closureFromWire(wc wire.Closure) *Closure {
	c := w.closures.Get()
	c.ID = wc.ID
	c.Fn = wc.Fn
	c.Args = c.Args[:0]
	for _, v := range wc.Args {
		c.Args = append(c.Args, owned(v))
	}
	c.Missing = wc.Missing
	c.Cont = wc.Cont
	c.NoSteal = wc.NoSteal
	c.TC = wc.TC
	if wc.Ckpt != nil {
		c.setCkpt(wc.Ckpt, wc.CkptSeq)
	} else {
		c.CkptSeq = wc.CkptSeq
	}
	return c
}

// stealRecord is the redundant state a victim keeps when it hands a task
// to a thief: the task's real continuation and a copy of the task itself.
// The thief's eventual result is addressed to the record (the victim
// rewrote the stolen closure's continuation), so the victim can forward it
// to the real continuation and discard the record — or, if the thief
// crashes first, re-enqueue the copy locally and redo the work. Because
// the record is consumed by the first result that reaches it, a result
// that arrives twice (in-flight original plus redo) is delivered exactly
// once.
type stealRecord struct {
	id       types.TaskID
	realCont types.Continuation
	task     wire.Closure // stolen copy; its Cont already targets the record
	thief    types.WorkerID
	// confirmed is set when the thief acknowledges receipt; an
	// unconfirmed record whose thief departs means the reply was lost in
	// flight, so the task is redone locally.
	confirmed bool
	// grantedAt anchors the speculation rule: a confirmed record whose
	// thief is suspect and whose age exceeds K× the Fn's p99 local
	// execution time is redone without waiting for a crash declaration.
	// The age (not the wall time) rides the wire as Record.OutstandingNS,
	// so a migrated-in record keeps its clock running at adoption.
	grantedAt time.Time
}

func (r *stealRecord) toWire() wire.Record {
	var outstanding int64
	if !r.grantedAt.IsZero() {
		outstanding = int64(time.Since(r.grantedAt))
	}
	return wire.Record{ID: r.id, RealCont: r.realCont, Task: r.task, Thief: r.thief, Confirmed: r.confirmed,
		OutstandingNS: outstanding}
}

func recordFromWire(w wire.Record) *stealRecord {
	return &stealRecord{id: w.ID, realCont: w.RealCont, task: w.Task, thief: w.Thief, confirmed: w.Confirmed,
		grantedAt: time.Now().Add(-time.Duration(w.OutstandingNS))}
}
