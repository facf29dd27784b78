// Package strata is the baseline runtime for the paper's Table 1: an
// analogue of the Strata scheduling library on the CM-5. It runs the same
// continuation-passing programs as Phish (package internal/core) but on a
// static set of processors sharing one address space:
//
//   - no clearinghouse, no membership protocol, no registration;
//   - thieves take tasks directly out of victims' deques under a lock
//     instead of exchanging steal-request/steal-reply messages;
//   - synchronizations are direct memory writes, never messages;
//   - no steal records, migration, or fault tolerance — the processor set
//     cannot change.
//
// The scheduling discipline itself (LIFO execution, FIFO steal, random
// victims) is identical, so the difference between the two runtimes on one
// processor is exactly the overhead the paper attributes to Phish
// "operating with a dynamic processor set while Strata operates with a
// static processor set".
package strata

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"phish/internal/core"
	"phish/internal/cputime"
	"phish/internal/deque"
	"phish/internal/model"
	"phish/internal/stats"
	"phish/internal/types"
)

// rootWorker is the pseudo-processor id the root task's continuation
// points at; a delivery there completes the run.
const rootWorker types.WorkerID = -1

// Config tunes the runtime; the discipline knobs reuse core's types so
// ablations configure both runtimes identically.
type Config struct {
	Seed       int64
	LocalOrder core.Order
	StealFrom  core.StealEnd
	Victim     core.VictimPolicy
	// Timeout bounds the run (default 5 minutes).
	Timeout time.Duration
}

// DefaultConfig is the paper's discipline.
func DefaultConfig() Config {
	return Config{Seed: 1, LocalOrder: core.LIFO, StealFrom: core.StealTail, Victim: core.RandomVictim}
}

// proc is one processor. Its tasks are core's closures, recycled through
// its own core.ClosurePool, and their Fns resolve in its own core.FnTable;
// only the proc's goroutine touches either. A closure stolen from another
// processor is freed into the pool of the processor that ran it. Its
// waiting successors are in a core.JoinTable.
type proc struct {
	id types.WorkerID
	rt *Runtime
	// mu guards dq and waiting: a thief pops dq's steal end, and any
	// processor delivers into a waiting closure.
	mu      sync.Mutex
	dq      deque.Deque[*core.Closure]
	waiting core.JoinTable
	seq     uint64
	rng     *rand.Rand
	fns     core.FnTable
	pool    core.ClosurePool
	ctx     ctx
	// The counts only this processor writes are plain fields, folded into
	// counters when Run returns. counters itself takes what other
	// processors write: a thief retires the task it took from here, and a
	// non-local result is a synchronization counted here by its sender.
	spawned, executed, synchs int64
	inUse, maxInUse           int64
	counters                  stats.Counters
	execNS                    int64
	wallNS                    int64
}

// Runtime is one Strata execution: a static set of P processors working
// on one program until the root result arrives.
type Runtime struct {
	cfg   Config
	procs []*proc

	doneCh chan struct{}
	doneMu sync.Mutex
	done   bool
	result types.Value

	outMu  sync.Mutex
	output []string
}

// Result is the outcome of a Strata run.
type Result struct {
	Value   types.Value
	Workers []stats.Snapshot
	Totals  stats.Snapshot
	Output  []string
	Elapsed time.Duration
}

// Run executes prog's root task on p static processors and blocks until
// the result is in.
func Run(prog *core.Program, rootFn string, rootArgs []types.Value, p int, cfg Config) (*Result, error) {
	if p <= 0 {
		p = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Minute
	}
	rt := &Runtime{cfg: cfg, doneCh: make(chan struct{})}
	for i := 0; i < p; i++ {
		rt.procs = append(rt.procs, &proc{
			id:      types.WorkerID(i),
			rt:      rt,
			waiting: core.NewJoinTable(types.WorkerID(i)),
			rng:     rand.New(rand.NewSource(cfg.Seed + int64(i)*0x9e3779b9)),
			fns:     core.NewFnTable(prog),
		})
	}
	// Seed the root on processor 0.
	p0 := rt.procs[0]
	root := p0.pool.Get()
	root.Args = append(root.Args[:0], rootArgs...)
	p0.spawn(root, rootFn, types.Continuation{Task: types.TaskID{Worker: rootWorker, Seq: 1}})

	start := time.Now()
	var wg sync.WaitGroup
	for _, pr := range rt.procs {
		wg.Add(1)
		go func(pr *proc) {
			defer wg.Done()
			pr.loop()
		}(pr)
	}

	select {
	case <-rt.doneCh:
	case <-time.After(cfg.Timeout):
		rt.complete(nil) // unstick the processors
		wg.Wait()
		return nil, fmt.Errorf("strata: %s(%s): no result after %v", prog.Name, rootFn, cfg.Timeout)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{Elapsed: elapsed, Output: rt.output}
	rt.doneMu.Lock()
	res.Value = rt.result
	rt.doneMu.Unlock()
	for _, pr := range rt.procs {
		pr.fold()
		s := pr.counters.Snapshot()
		s.Worker = int(pr.id)
		s.ExecTime = time.Duration(pr.execNS)
		s.WallTime = time.Duration(pr.wallNS)
		res.Workers = append(res.Workers, s)
	}
	res.Totals = stats.JobTotals(res.Workers)
	return res, nil
}

func (rt *Runtime) complete(v types.Value) {
	rt.doneMu.Lock()
	defer rt.doneMu.Unlock()
	if rt.done {
		return
	}
	rt.done = true
	rt.result = v
	close(rt.doneCh)
}

func (rt *Runtime) finished() bool {
	select {
	case <-rt.doneCh:
		return true
	default:
		return false
	}
}

// fold adds the plain counts into counters, once the processor has stopped.
func (p *proc) fold() {
	c := &p.counters
	c.TasksSpawned.Store(p.spawned)
	c.TasksExecuted.Store(p.executed)
	c.Synchronizations.Add(p.synchs)
	c.TasksInUse.Add(p.inUse)
	c.MaxTasksInUse.Store(p.maxInUse)
}

// adopted records a live closure on this processor, spawned here or stolen,
// and keeps the high-water mark. counters.TasksInUse holds minus the tasks
// thieves took from here.
func (p *proc) adopted() {
	p.inUse++
	if n := p.inUse + p.counters.TasksInUse.Load(); n > p.maxInUse {
		p.maxInUse = n
	}
}

func (p *proc) loop() {
	// Own an OS thread so execution time can be accounted as CPU time
	// (the participant's "own processor"); see internal/cputime.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0, cpuOK := cputime.Thread()
	start := time.Now()
	defer func() {
		p.wallNS = int64(time.Since(start))
		p.execNS = p.wallNS
		if cpuOK {
			if cpu1, ok := cputime.Thread(); ok {
				p.execNS = int64(cpu1 - cpu0)
			}
		}
	}()
	idle := 0
	for !p.rt.finished() {
		cl := p.popLocal()
		if cl == nil {
			cl = p.stealOnce()
		}
		if cl == nil {
			// Nothing anywhere right now; yield briefly and retry. The
			// CM-5's processors would poll the network here.
			idle++
			if idle > 64 {
				time.Sleep(20 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			continue
		}
		idle = 0
		p.execute(cl)
	}
}

func (p *proc) popLocal() *core.Closure {
	p.mu.Lock()
	defer p.mu.Unlock()
	var cl *core.Closure
	var ok bool
	if p.rt.cfg.LocalOrder == core.LIFO {
		cl, ok = p.dq.PopHead()
	} else {
		cl, ok = p.dq.PopTail()
	}
	if !ok {
		return nil
	}
	return cl
}

func (p *proc) stealOnce() *core.Closure {
	n := len(p.rt.procs)
	if n < 2 {
		return nil
	}
	var victim *proc
	switch p.rt.cfg.Victim {
	case core.RoundRobinVictim:
		victim = p.rt.procs[(int(p.id)+1+int(p.seq))%n]
		if victim == p {
			victim = p.rt.procs[(int(p.id)+2+int(p.seq))%n]
		}
	default:
		for {
			victim = p.rt.procs[p.rng.Intn(n)]
			if victim != p {
				break
			}
		}
	}
	p.counters.StealAttempts.Add(1)
	victim.mu.Lock()
	var cl *core.Closure
	var ok bool
	if p.rt.cfg.StealFrom == core.StealTail {
		cl, ok = victim.dq.PopTail()
	} else {
		cl, ok = victim.dq.PopHead()
	}
	victim.mu.Unlock()
	if !ok {
		p.counters.FailedSteals.Add(1)
		return nil
	}
	victim.counters.TaskRetired()
	p.adopted()
	p.counters.TasksStolen.Add(1)
	return cl
}

func (p *proc) execute(cl *core.Closure) {
	p.executed++
	fn := p.fns.Func(cl.Fn)
	p.ctx.p = p
	p.ctx.c = cl
	p.ctx.succs = p.ctx.succs[:0]
	fn(&p.ctx)
	p.ctx.c = nil
	p.inUse--
	p.pool.Put(cl)
}

// spawn makes cl, a closure from p's pool with its arguments in place, a
// ready task of fn on p (callable before the loops start and from p's own
// executing task).
func (p *proc) spawn(cl *core.Closure, fn string, cont types.Continuation) {
	for i, a := range cl.Args {
		if a == nil {
			panic(fmt.Sprintf("strata: spawn %s: nil argument %d", fn, i))
		}
	}
	p.seq++
	cl.ID = types.TaskID{Worker: p.id, Seq: p.seq}
	cl.Fn = fn
	cl.Cont = cont
	p.spawned++
	p.adopted()
	p.mu.Lock()
	p.dq.PushHead(cl)
	p.mu.Unlock()
}

// deliver routes a result: to the runtime's root slot or into a waiting
// closure on the owning processor (a direct memory write — the shared
// address space is the whole point of this baseline).
func (p *proc) deliver(cont types.Continuation, v types.Value, countSynch bool) {
	if cont.None() {
		return
	}
	if cont.Task.Worker == rootWorker {
		p.rt.complete(v)
		return
	}
	owner := p.rt.procs[cont.Task.Worker]
	owner.mu.Lock()
	cl := owner.waiting.Get(cont.Task)
	if cl == nil || int(cont.Slot) >= len(cl.Args) || cl.Args[cont.Slot] != nil {
		owner.mu.Unlock()
		return // dropped; cannot happen in fault-free strata
	}
	cl.Args[cont.Slot] = v
	cl.Missing--
	if cl.Missing == 0 {
		owner.waiting.Del(cl)
		owner.dq.PushHead(cl)
	}
	owner.mu.Unlock()
	switch {
	case !countSynch:
	case owner == p:
		p.synchs++
	default:
		owner.counters.Synchronizations.Add(1)
		owner.counters.NonLocalSynchs.Add(1)
	}
}

// ctx implements model.Ctx on the Strata runtime.
type ctx struct {
	p *proc
	c *core.Closure
	// succs holds the ids of the successors the running body created. A
	// Succ handed to the body points in here, not into the successor's
	// closure, which another processor may run and recycle while the body
	// still holds the Succ. Emptied for every body; an append that moves the
	// array leaves earlier Succs on the old one, which nothing writes again.
	succs []types.TaskID
}

var _ model.Ctx = (*ctx)(nil)

func (t *ctx) NArgs() int                               { return len(t.c.Args) }
func (t *ctx) Arg(i int) types.Value                    { return t.c.Args[i] }
func (t *ctx) Worker() types.WorkerID                   { return t.p.id }
func (t *ctx) Return(v types.Value)                     { t.p.deliver(t.c.Cont, v, true) }
func (t *ctx) Send(c types.Continuation, v types.Value) { t.p.deliver(c, v, true) }

func (t *ctx) Int(i int) int64     { return model.Int(t.c.Fn, i, t.c.Args[i]) }
func (t *ctx) Float(i int) float64 { return model.Float(t.c.Fn, i, t.c.Args[i]) }
func (t *ctx) String(i int) string { return model.String(t.c.Fn, i, t.c.Args[i]) }

func (t *ctx) Successor(fn string, nslots int) model.Succ {
	return t.SuccessorCont(fn, nslots, t.c.Cont)
}

func (t *ctx) SuccessorCont(fn string, nslots int, cont types.Continuation) model.Succ {
	if nslots <= 0 {
		panic("strata: successor needs at least one slot")
	}
	p := t.p
	p.seq++
	cl := p.pool.Get()
	cl.ID = types.TaskID{Worker: p.id, Seq: p.seq}
	cl.Fn = fn
	cl.Args = slices.Grow(cl.Args, nslots)[:nslots] // nil: a pooled closure's slots past its length are
	cl.Missing = int32(nslots)
	cl.Cont = cont
	p.spawned++
	p.adopted()
	p.mu.Lock()
	p.waiting.Put(cl)
	p.mu.Unlock()
	t.succs = append(t.succs, cl.ID)
	return (*core.SuccRef)(&t.succs[len(t.succs)-1])
}

func (t *ctx) Preset(s model.Succ, slot int, v types.Value) {
	if v == nil {
		panic("strata: nil task argument")
	}
	t.p.deliver(types.Continuation{Task: s.Task(), Slot: int32(slot)}, v, false)
}

func (t *ctx) Spawn(fn string, cont types.Continuation, args ...types.Value) {
	cl := t.p.pool.Get()
	cl.Args = append(cl.Args[:0], args...)
	t.p.spawn(cl, fn, cont)
}

func (t *ctx) Spawn1(fn string, cont types.Continuation, a types.Value) {
	cl := t.p.pool.Get()
	cl.Args = append(cl.Args[:0], a)
	t.p.spawn(cl, fn, cont)
}

func (t *ctx) Print(format string, args ...any) {
	t.p.rt.outMu.Lock()
	t.p.rt.output = append(t.p.rt.output, fmt.Sprintf(format, args...))
	t.p.rt.outMu.Unlock()
}

// Checkpoint and Yield are the no-preemption degenerate case of the
// checkpoint surface: Strata procs are never reclaimed, so there is never
// a prior blob and never a reason to vacate the processor.
func (t *ctx) Checkpoint() []byte     { return nil }
func (t *ctx) Yield(blob []byte) bool { return false }
