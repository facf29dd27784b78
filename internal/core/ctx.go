package core

import (
	"fmt"

	"phish/internal/model"
	"phish/internal/types"
	"phish/internal/wire"
)

// TaskCtx implements model.Ctx, the programming interface shared with the
// Strata baseline runtime.
var _ model.Ctx = (*TaskCtx)(nil)

// TaskCtx is a task's window onto the runtime while its body executes. It
// exposes the task's arguments and the three scheduling primitives of the
// continuation-passing model: Return a result, Spawn a ready child, and
// create a Successor whose join counter waits for results.
//
// A TaskCtx is only valid during the TaskFunc call it was passed to.
type TaskCtx struct {
	w *Worker
	c *Closure
	// yielded is set when Yield told the body to vacate: the scheduler
	// requeues the closure instead of retiring it.
	yielded bool
}

// NArgs returns the number of argument slots.
func (t *TaskCtx) NArgs() int { return len(t.c.Args) }

// Arg returns argument i, which belongs to the task (model.Ctx.Arg):
// closureFromWire and toWire copy the mutable values a steal record, a
// Migrate or a checkpoint snapshot would otherwise share with it.
func (t *TaskCtx) Arg(i int) types.Value { return t.c.Args[i] }

// Int returns argument i as an int64 (model.Int).
func (t *TaskCtx) Int(i int) int64 { return model.Int(t.c.Fn, i, t.c.Args[i]) }

// Float returns argument i as a float64 (model.Float).
func (t *TaskCtx) Float(i int) float64 { return model.Float(t.c.Fn, i, t.c.Args[i]) }

// String returns argument i as a string (model.String).
func (t *TaskCtx) String(i int) string { return model.String(t.c.Fn, i, t.c.Args[i]) }

// Worker returns the executing worker's identity.
func (t *TaskCtx) Worker() types.WorkerID { return t.w.id }

// Return sends v to the task's continuation — the task's one result. A
// task body calls Return or builds a successor; doing both sends two
// values into the same slot and corrupts the consumer's join counter, so
// don't.
func (t *TaskCtx) Return(v types.Value) {
	t.w.deliver(t.c.Cont, v, false, t.childTC())
}

// Send delivers v to an explicit continuation (a successor slot obtained
// from SuccRef.Cont, or a continuation the application threaded through
// task arguments). Each slot must receive exactly one value.
func (t *TaskCtx) Send(cont types.Continuation, v types.Value) {
	t.w.deliver(cont, v, false, t.childTC())
}

// childTC is the trace context this task hands to everything it creates
// or sends: the task itself becomes the parent span, and the sampling
// decision made at the root is inherited unchanged.
func (t *TaskCtx) childTC() wire.TraceCtx {
	return wire.TraceCtx{Parent: t.c.ID, Flags: t.c.TC.Flags}
}

// SuccRef names a successor task created by this task body, so that the
// body can mint continuations into the successor's slots and preset
// constant slots. It implements model.Succ through a pointer — the
// successor closure's own ID field — so handing one out allocates nothing.
// Like the TaskCtx, it is valid only during the body that created it.
type SuccRef types.TaskID

var _ model.Succ = (*SuccRef)(nil)

// Cont returns the continuation that fills the successor's slot i.
func (s *SuccRef) Cont(slot int) types.Continuation {
	return types.Continuation{Task: types.TaskID(*s), Slot: int32(slot)}
}

// Task returns the successor's task id (diagnostics).
func (s *SuccRef) Task() types.TaskID { return types.TaskID(*s) }

// Successor creates a waiting task of fn with nslots empty argument slots
// that inherits the calling task's continuation: when all slots are
// filled, the successor runs, and whatever it Returns flows to wherever
// this task's result was headed. This is the join of the model — "spawn
// children, then have a successor combine them".
func (t *TaskCtx) Successor(fn string, nslots int) model.Succ {
	return t.SuccessorCont(fn, nslots, t.c.Cont)
}

// SuccessorCont is Successor with an explicit continuation (used when a
// task fans out several joins).
func (t *TaskCtx) SuccessorCont(fn string, nslots int, cont types.Continuation) model.Succ {
	if nslots <= 0 {
		panic("core: successor needs at least one slot")
	}
	cl := t.w.closures.Get()
	cl.ID = t.w.nextTaskID()
	cl.Fn = fn
	cl.growArgs(nslots)
	cl.Missing = int32(nslots)
	cl.Cont = cont
	cl.TC = t.childTC()
	t.w.tasks.created()
	t.w.join.Put(cl)
	return (*SuccRef)(&cl.ID)
}

// Preset fills slot i of a successor with a constant known at spawn time.
// Presets are plumbing, not results, so they are not counted as
// synchronizations. Presetting every slot makes the successor ready
// immediately.
func (t *TaskCtx) Preset(s model.Succ, slot int, v types.Value) {
	if v == nil {
		panic("core: nil task argument")
	}
	t.w.fillSlot(types.Continuation{Task: s.Task(), Slot: int32(slot)}, v, false, false)
}

// Spawn creates a ready child task of fn with a copy of args, whose result
// will be delivered to cont. The child goes to the head of the ready deque
// (the paper's LIFO discipline), so with the default configuration it runs
// next unless a thief takes older work first.
func (t *TaskCtx) Spawn(fn string, cont types.Continuation, args ...types.Value) {
	cl := t.w.closures.Get()
	cl.setArgs(args)
	t.w.spawn(cl, fn, cont, false, t.childTC())
}

// Spawn1 is Spawn with one argument, which goes straight into the child's
// (recycled) argument array.
func (t *TaskCtx) Spawn1(fn string, cont types.Continuation, a types.Value) {
	cl := t.w.closures.Get()
	cl.Args = append(cl.Args[:0], a)
	t.w.spawn(cl, fn, cont, false, t.childTC())
}

// Print emits output through the job's clearinghouse ("a user need only
// watch the Clearinghouse to see job output"). Output is buffered and sent
// asynchronously.
func (t *TaskCtx) Print(format string, args ...any) {
	t.w.print(fmt.Sprintf(format, args...))
}

// MaxCkptBlob caps a single checkpoint blob. Blobs piggyback on StatReport
// datagrams and ride in the clearinghouse journal, so they must stay
// compact; Yield refuses (but does not fail) larger blobs.
const MaxCkptBlob = 64 << 10

// Checkpoint returns the task's last saved checkpoint blob, or nil when
// the task starts from scratch. The returned slice is owned by the runtime
// and valid only until the next Yield; treat it as read-only.
func (t *TaskCtx) Checkpoint() []byte {
	if len(t.c.Ckpt) == 0 {
		return nil // a recycled closure's empty buffer is not a blob
	}
	return t.c.Ckpt
}

// Yield offers the runtime a checkpoint of the task's partial progress and
// asks whether the body must vacate the processor. The blob (copied, so
// the caller may reuse its buffer) replaces any previous checkpoint for
// this task: from here on it travels with the closure on drain, reclaim,
// steal and migration. It is published to the clearinghouse on the
// piggybacked StatReport path once per CkptEvery (latest-wins; a blob saved
// between two publications is superseded before it is ever copied). Yield
// returns true when the worker is draining, being reclaimed, or crashing —
// the body must then return immediately without calling Return; the
// closure is requeued with the blob attached and re-executed later,
// possibly on another worker.
//
// Yield is also the worker's cooperative scheduling point: a long
// checkpointable body would otherwise leave the worker deaf to steal
// requests and drain traffic until it completed. When a message is waiting,
// Yield preempts the body (returning true); the scheduler loop services the
// mailbox and then resumes the closure from the blob it just saved. Tasks
// that never Yield keep the old run-to-completion behavior.
//
// A Yield with nothing to do — no message, no request, publication not due —
// costs the copy, two counter updates and four loads: no clock reading, no
// allocation, no lock, no system call.
//
// Blobs larger than MaxCkptBlob are not saved (the previous checkpoint
// stands), but the preemption answer is still accurate.
func (t *TaskCtx) Yield(blob []byte) bool {
	w, c := t.w, t.c
	if w.cfg.NoCkpt {
		return false
	}
	if len(blob) <= MaxCkptBlob {
		c.setCkpt(blob, c.CkptSeq+1)
		w.counters.CkptSaves.Add(1)
		if c.TC.Sampled() {
			w.RecordSpan(wire.Span{Kind: wire.SpanCkpt, Flags: c.TC.Flags, Worker: w.id,
				Task: c.ID, Parent: c.TC.Parent})
		}
		if w.ckptDue.Load() {
			w.publishCkpt(c)
		}
	}
	if w.attn.Load() != 0 {
		t.yielded = true
		return true
	}
	// Pending traffic: pull one envelope off the wire (handling it here
	// would re-enter the scheduler mid-body, so it is stashed for the
	// loop) and vacate. A worker that reads its own socket looks there
	// first — nobody else will have — but a look is a system call, so it
	// takes one no more often than the loop's housekeeping pass would
	// between tasks of this grain: at every Yield of a timed attempt, at
	// every timedEvery-th Yield otherwise.
	if w.net != nil {
		w.yieldsUnpolled++
		if c.timed || w.yieldsUnpolled >= timedEvery {
			w.yieldsUnpolled = 0
			w.pollNet(0)
		}
	}
	select {
	case env, ok := <-w.recv:
		if !ok {
			w.shutdownMsg = true
		} else {
			w.stash = append(w.stash, env)
		}
		t.yielded = true
		return true
	default:
	}
	return false
}
