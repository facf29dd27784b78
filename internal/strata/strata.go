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

type closure struct {
	id      types.TaskID
	fn      string
	args    []types.Value
	missing int32
	cont    types.Continuation
	// arg0 backs args for a task spawned with at most one argument, so such
	// a spawn allocates the closure and nothing else.
	arg0 [1]types.Value
}

type proc struct {
	id       types.WorkerID
	rt       *Runtime
	mu       sync.Mutex
	dq       deque.Deque[*closure]
	waiting  map[uint64]*closure
	seq      uint64
	rng      *rand.Rand
	counters stats.Counters
	execNS   int64
	wallNS   int64
	fns      map[string]core.TaskFunc
	ctx      ctx
}

// Runtime is one Strata execution: a static set of P processors working
// on one program until the root result arrives.
type Runtime struct {
	prog  *core.Program
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
	rt := &Runtime{prog: prog, cfg: cfg, doneCh: make(chan struct{})}
	for i := 0; i < p; i++ {
		rt.procs = append(rt.procs, &proc{
			id:      types.WorkerID(i),
			rt:      rt,
			waiting: make(map[uint64]*closure),
			rng:     rand.New(rand.NewSource(cfg.Seed + int64(i)*0x9e3779b9)),
			fns:     make(map[string]core.TaskFunc),
		})
	}
	// Seed the root on processor 0.
	p0 := rt.procs[0]
	p0.spawnLocked(rootFn, types.Continuation{Task: types.TaskID{Worker: rootWorker, Seq: 1}}, rootArgs)

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

func (p *proc) popLocal() *closure {
	p.mu.Lock()
	defer p.mu.Unlock()
	var cl *closure
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

func (p *proc) stealOnce() *closure {
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
	var cl *closure
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
	p.counters.TaskAdopted()
	p.counters.TasksStolen.Add(1)
	return cl
}

func (p *proc) execute(cl *closure) {
	p.counters.TasksExecuted.Add(1)
	fn, ok := p.fns[cl.fn]
	if !ok {
		fn = p.rt.prog.Funcs.MustLookup(cl.fn)
		p.fns[cl.fn] = fn
	}
	p.ctx.p = p
	p.ctx.c = cl
	fn(&p.ctx)
	p.ctx.c = nil
	p.counters.TaskRetired()
}

// spawnLocked creates a ready closure on p with a copy of args (callable
// before the loops start and from p's own executing task).
func (p *proc) spawnLocked(fn string, cont types.Continuation, args []types.Value) {
	p.seq++
	cl := &closure{id: types.TaskID{Worker: p.id, Seq: p.seq}, fn: fn, cont: cont}
	cl.args = append(cl.arg0[:0], args...)
	p.counters.TaskCreated()
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
	cl, ok := owner.waiting[cont.Task.Seq]
	if !ok || int(cont.Slot) >= len(cl.args) || cl.args[cont.Slot] != nil {
		owner.mu.Unlock()
		return // dropped; cannot happen in fault-free strata
	}
	cl.args[cont.Slot] = v
	cl.missing--
	readied := cl.missing == 0
	if readied {
		delete(owner.waiting, cont.Task.Seq)
		owner.dq.PushHead(cl)
	}
	owner.mu.Unlock()
	if countSynch {
		owner.counters.Synchronizations.Add(1)
		if owner != p {
			owner.counters.NonLocalSynchs.Add(1)
		}
	}
}

// ctx implements model.Ctx on the Strata runtime.
type ctx struct {
	p *proc
	c *closure
}

var _ model.Ctx = (*ctx)(nil)

func (t *ctx) NArgs() int                               { return len(t.c.args) }
func (t *ctx) Arg(i int) types.Value                    { return t.c.args[i] }
func (t *ctx) Worker() types.WorkerID                   { return t.p.id }
func (t *ctx) Return(v types.Value)                     { t.p.deliver(t.c.cont, v, true) }
func (t *ctx) Send(c types.Continuation, v types.Value) { t.p.deliver(c, v, true) }

func (t *ctx) Int(i int) int64     { return model.Int(t.c.fn, i, t.c.args[i]) }
func (t *ctx) Float(i int) float64 { return model.Float(t.c.fn, i, t.c.args[i]) }
func (t *ctx) String(i int) string { return model.String(t.c.fn, i, t.c.args[i]) }

type succ struct {
	id types.TaskID
}

func (s succ) Cont(slot int) types.Continuation {
	return types.Continuation{Task: s.id, Slot: int32(slot)}
}
func (s succ) Task() types.TaskID { return s.id }

func (t *ctx) Successor(fn string, nslots int) model.Succ {
	return t.SuccessorCont(fn, nslots, t.c.cont)
}

func (t *ctx) SuccessorCont(fn string, nslots int, cont types.Continuation) model.Succ {
	if nslots <= 0 {
		panic("strata: successor needs at least one slot")
	}
	p := t.p
	p.seq++
	cl := &closure{
		id:      types.TaskID{Worker: p.id, Seq: p.seq},
		fn:      fn,
		args:    make([]types.Value, nslots),
		missing: int32(nslots),
		cont:    cont,
	}
	p.counters.TaskCreated()
	p.mu.Lock()
	p.waiting[cl.id.Seq] = cl
	p.mu.Unlock()
	return succ{id: cl.id}
}

func (t *ctx) Preset(s model.Succ, slot int, v types.Value) {
	if v == nil {
		panic("strata: nil task argument")
	}
	t.p.deliver(types.Continuation{Task: s.Task(), Slot: int32(slot)}, v, false)
}

func (t *ctx) Spawn(fn string, cont types.Continuation, args ...types.Value) {
	for i, a := range args {
		if a == nil {
			panic(fmt.Sprintf("strata: spawn %s: nil argument %d", fn, i))
		}
	}
	t.p.spawnLocked(fn, cont, args)
}

func (t *ctx) Spawn1(fn string, cont types.Continuation, a types.Value) { t.Spawn(fn, cont, a) }

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
