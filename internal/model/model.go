// Package model defines the continuation-passing-threads programming
// interface shared by Phish's distributed runtime (internal/core) and the
// Strata baseline runtime (internal/strata). Applications are written once
// against Ctx and run unchanged on either — exactly the property the paper
// relies on ("We support this programming model on both the CM-5 with the
// Strata scheduling library and on a network of workstations with Phish"),
// and the property that makes the Table 1 comparison meaningful.
package model

import (
	"fmt"

	"phish/internal/types"
)

// Func is the body of a task: it runs to completion without blocking,
// reading arguments from the context and either returning a value to its
// continuation or spawning children plus a successor to combine them.
type Func func(Ctx)

// Succ names a successor task created by a running task, minting
// continuations into its argument slots.
type Succ interface {
	// Cont returns the continuation that fills the successor's slot i.
	Cont(slot int) types.Continuation
	// Task returns the successor's task id (diagnostics).
	Task() types.TaskID
}

// Ctx is a task's window onto its runtime during execution. It is valid
// only for the duration of the Func call it was passed to: runtimes reuse
// context objects between tasks, so a body must not retain its Ctx.
type Ctx interface {
	// NArgs returns the number of argument slots.
	NArgs() int
	// Arg returns argument i. The value belongs to this task: its body may
	// change a slice argument in place, and no other task, redo or
	// checkpoint reads the change, because a runtime copies a mutable value
	// wherever it adopts or snapshots a closure that another copy of the
	// task may still run from. A value the body passes to Return, Send,
	// Preset or Spawn is its receiver's from then on, and the body does not
	// touch it again. A value the body hands to several tasks, as pfold's
	// fan-out hands its path to every child, is shared by them, and stays
	// read-only by that body's choice.
	Arg(i int) types.Value
	// Int returns argument i as an int64 (see the package function Int).
	Int(i int) int64
	// Float returns argument i as a float64 (see Float).
	Float(i int) float64
	// String returns argument i as a string (see String).
	String(i int) string
	// Worker identifies the executing participant.
	Worker() types.WorkerID

	// Return sends v to the task's continuation (its one result).
	Return(v types.Value)
	// Send delivers v to an explicit continuation.
	Send(cont types.Continuation, v types.Value)
	// Successor creates a waiting task of fn with nslots empty slots
	// inheriting this task's continuation.
	Successor(fn string, nslots int) Succ
	// SuccessorCont is Successor with an explicit continuation.
	SuccessorCont(fn string, nslots int, cont types.Continuation) Succ
	// Preset fills a successor slot with a spawn-time constant (not
	// counted as a synchronization).
	Preset(s Succ, slot int, v types.Value)
	// Spawn creates a ready child task whose result goes to cont. The
	// runtime copies args before Spawn returns and never keeps the slice, so
	// a body may reuse one argument slice across Spawns.
	Spawn(fn string, cont types.Continuation, args ...types.Value)
	// Spawn1 is Spawn with exactly one argument. Because Ctx is an
	// interface, every variadic Spawn call builds its args slice on the
	// heap; Spawn1 passes the one value on its own and builds no slice.
	Spawn1(fn string, cont types.Continuation, a types.Value)
	// Print emits output through the job's I/O channel.
	Print(format string, args ...any)

	// Checkpoint returns the task's last saved checkpoint blob, or nil if
	// the task is starting from scratch. A long-running leaf that wants to
	// survive preemption reads it at entry and resumes mid-computation.
	Checkpoint() []byte
	// Yield offers the runtime a checkpoint of the task's partial progress
	// (a compact binary blob the task itself knows how to decode; see
	// DESIGN.md for the size cap and crash-consistency rules). When Yield
	// returns true the runtime wants the task off the processor — the body
	// must return immediately without calling Return; it will be
	// re-executed later (possibly on another worker) with Checkpoint
	// returning the saved blob. When Yield returns false the task keeps
	// running. Runtimes without preemption always return false and may
	// discard the blob. Tasks that never call Yield behave exactly as
	// before this interface existed.
	Yield(blob []byte) bool
}

// Int is Ctx.Int on every runtime: argument i of task fn, v, as an int64.
// It accepts the integer widths a value can arrive in after a round trip
// through gob or the wire, and panics on anything else — a task disagreeing
// with its spawner about argument types is a programming error.
func Int(fn string, i int, v types.Value) int64 {
	if n, ok := v.(int64); ok {
		return n
	}
	return intOther(fn, i, v) // out of line, so that Int inlines into the runtimes' Ctx.Int
}

func intOther(fn string, i int, v types.Value) int64 {
	switch n := v.(type) {
	case int:
		return int64(n)
	case int32:
		return int64(n)
	case uint64:
		return int64(n)
	}
	panic(badArg(fn, i, v, "an integer"))
}

// Float is Ctx.Float on every runtime: argument i of task fn as a float64,
// accepting an int64.
func Float(fn string, i int, v types.Value) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	}
	panic(badArg(fn, i, v, "a float"))
}

// String is Ctx.String on every runtime: argument i of task fn as a string.
func String(fn string, i int, v types.Value) string {
	if s, ok := v.(string); ok {
		return s
	}
	panic(badArg(fn, i, v, "a string"))
}

func badArg(fn string, i int, v types.Value, want string) string {
	return fmt.Sprintf("task %s arg %d is %T, not %s", fn, i, v, want)
}
