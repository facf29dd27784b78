// Package phish is a reproduction of the Phish system from Blumofe and
// Park, "Scheduling Large-Scale Parallel Computations on Networks of
// Workstations" (HPDC 1994): idle-initiated scheduling for dynamic
// parallel applications on a network of workstations.
//
// Applications are written in the continuation-passing-threads style: a
// task either returns a value to its continuation or spawns child tasks
// plus a successor task whose join counter waits for the children's
// results. The micro-level scheduler executes local tasks in LIFO order
// and steals from random victims in FIFO order, which preserves memory and
// communication locality; the macro-level scheduler (PhishJobQ +
// PhishJobManager, packages internal/jobq and internal/jobmanager via the
// cmd/ binaries and internal/cluster) assigns idle workstations to jobs.
//
// The quickest way in:
//
//	prog := phish.NewProgram("fib")
//	prog.Register("fib", fibTask)
//	prog.Register("sum", sumTask)
//	res, err := phish.RunLocal(prog, "fib", phish.Args(30), phish.LocalOptions{Workers: 8})
//
// RunLocal runs the job on an in-process fabric; the cmd/ binaries run the
// same programs across real machines over UDP.
package phish

import (
	"fmt"
	"sync"
	"time"

	"phish/internal/clearinghouse"
	"phish/internal/clock"
	"phish/internal/core"
	"phish/internal/model"
	"phish/internal/phishnet"
	"phish/internal/stats"
	"phish/internal/trace"
	"phish/internal/types"
	"phish/internal/wire"
)

// Distributed-tracing re-exports (the span plane).
type (
	// Span is one recorded scheduler activity on the cluster timeline.
	Span = wire.Span
	// TraceDAG is the task DAG reconstructed from a traced run, with
	// empirical T1 (work), T∞ (critical path), and per-worker
	// attribution.
	TraceDAG = trace.DAG
)

// BuildDAG reconstructs the task DAG from a traced run's spans (see
// LocalResult.Spans).
func BuildDAG(spans []Span) *TraceDAG { return trace.BuildDAG(spans) }

// Re-exported fundamental types; see the internal packages for details.
type (
	// Value is the dynamically-typed datum passed between tasks.
	Value = types.Value
	// Continuation names the destination of a task's result.
	Continuation = types.Continuation
	// TaskCtx is a task body's window onto the runtime; tasks are written
	// against this interface and run unchanged on both the Phish runtime
	// and the Strata baseline.
	TaskCtx = model.Ctx
	// SuccRef names a successor task created by the running task.
	SuccRef = model.Succ
	// TaskFunc is the body of a task.
	TaskFunc = model.Func
	// Program is a named parallel application.
	Program = core.Program
	// WorkerConfig tunes the micro-level scheduler of each worker.
	WorkerConfig = core.Config
	// Snapshot is one worker's scheduling statistics (the paper's
	// Table 2 counters).
	Snapshot = stats.Snapshot
)

// Scheduling-discipline constants, re-exported for the ablation knobs.
const (
	LIFO             = core.LIFO
	FIFO             = core.FIFO
	StealTail        = core.StealTail
	StealHead        = core.StealHead
	RandomVictim     = core.RandomVictim
	RoundRobinVictim = core.RoundRobinVictim
	SiteAwareVictim  = core.SiteAwareVictim
)

// NewProgram returns an empty program to register task functions on.
func NewProgram(name string) *Program { return core.NewProgram(name) }

// RegisterProgram makes a program joinable by name in this process (used
// by the distributed binaries; RunLocal does not need it).
func RegisterProgram(p *Program) { core.RegisterProgram(p) }

// RegisterValue registers an application value type that crosses the wire
// (gob encoding); built-in scalars, strings, []byte, []int64 and
// []float64 are pre-registered.
func RegisterValue(v any) { wire.RegisterValue(v) }

// Args builds a task argument list.
func Args(vs ...Value) []Value { return vs }

// DefaultWorkerConfig is the paper's scheduling discipline.
func DefaultWorkerConfig() WorkerConfig { return core.DefaultConfig() }

// LocalOptions configures RunLocal.
type LocalOptions struct {
	// Workers is the number of participants (default 1).
	Workers int
	// Config tunes every worker; zero value means DefaultWorkerConfig.
	Config WorkerConfig
	// Latency injects a fixed one-way message latency on the in-process
	// fabric, mimicking a slow LAN.
	Latency time.Duration
	// Sites splits the workers into this many network neighborhoods
	// (contiguous blocks); messages between different sites incur
	// InterSiteLatency instead of Latency. Combine with a site-aware
	// WorkerConfig (Victim: SiteAwareVictim) to reproduce the paper's
	// heterogeneous-network extension. Zero or one means a flat network.
	Sites int
	// InterSiteLatency is the one-way delay across the slow cut between
	// sites.
	InterSiteLatency time.Duration
	// SpanTrace enables the distributed span plane: workers record task,
	// steal and control spans and ship them to the clearinghouse
	// collector; the merged cluster timeline comes back in
	// LocalResult.Spans.
	SpanTrace bool
	// SpanSample is the per-root sampling probability (zero or >= 1
	// samples everything); only meaningful with SpanTrace.
	SpanSample float64
	// UpdateEvery overrides the clearinghouse membership push interval.
	UpdateEvery time.Duration
	// Timeout bounds the whole run (default 5 minutes).
	Timeout time.Duration
}

// LocalResult is the outcome of an in-process run.
type LocalResult struct {
	// Value is the root task's result.
	Value Value
	// Workers holds each participant's counters (ExecTime included).
	Workers []Snapshot
	// Totals aggregates Workers the way the paper's Table 2 does.
	Totals Snapshot
	// Output is everything tasks printed through the clearinghouse.
	Output string
	// Elapsed is the wall-clock time from first spawn to root result.
	Elapsed time.Duration
	// Spans is the cluster-aligned span timeline (empty unless
	// LocalOptions.SpanTrace); feed it to BuildDAG.
	Spans []Span
	// SpansDropped counts spans lost to worker ring or collector caps; a
	// nonzero value means the timeline has holes.
	SpansDropped uint64
}

// RunLocal executes prog's root task on opt.Workers workers connected by
// an in-process fabric, blocking until the root result arrives, and
// returns it with the per-worker statistics. It is the backbone of the
// examples, the tests, and every benchmark that regenerates a table or
// figure of the paper.
func RunLocal(prog *Program, rootFn string, rootArgs []Value, opt LocalOptions) (*LocalResult, error) {
	if _, err := prog.Funcs.Lookup(rootFn); err != nil {
		return nil, fmt.Errorf("phish: %w", err)
	}
	nw := opt.Workers
	if nw <= 0 {
		nw = 1
	}
	cfg := opt.Config
	if cfg == (WorkerConfig{}) {
		cfg = core.DefaultConfig()
	}
	timeout := opt.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Minute
	}

	fab := phishnet.NewFabric()
	defer fab.Close()
	if opt.Latency > 0 {
		fab.SetLatency(opt.Latency)
	}
	siteOf := func(i int) int32 { return 0 }
	if opt.Sites > 1 {
		per := (nw + opt.Sites - 1) / opt.Sites
		siteOf = func(i int) int32 { return int32(i / per) }
		base, cut := opt.Latency, opt.InterSiteLatency
		fab.SetLatencyFunc(func(from, to types.WorkerID) time.Duration {
			// The clearinghouse sits at site 0's machine room.
			sf, st := int32(0), int32(0)
			if from >= 0 {
				sf = siteOf(int(from))
			}
			if to >= 0 {
				st = siteOf(int(to))
			}
			if sf != st {
				return cut
			}
			return base
		})
	}

	chCfg := clearinghouse.DefaultConfig()
	if opt.UpdateEvery > 0 {
		chCfg.UpdateEvery = opt.UpdateEvery
	}
	spec := wire.JobSpec{
		ID:       1,
		Name:     prog.Name,
		Program:  prog.Name,
		RootFn:   rootFn,
		RootArgs: rootArgs,
	}
	ch := clearinghouse.New(spec, fab.Attach(types.ClearinghouseID), chCfg)
	go ch.Run()
	defer ch.Stop()

	workers := make([]*core.Worker, nw)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < nw; i++ {
		port := fab.Attach(types.WorkerID(i))
		wcfg := cfg
		wcfg.Site = siteOf(i)
		if opt.SpanTrace {
			wcfg.SpanTrace = true
			wcfg.SpanSample = opt.SpanSample
		}
		workers[i] = core.NewWorker(spec.ID, types.WorkerID(i), prog, port, wcfg, clock.System)
		wg.Add(1)
		go func(w *core.Worker) {
			defer wg.Done()
			_ = w.Run()
		}(workers[i])
	}

	val, err := ch.WaitResult(timeout)
	elapsed := time.Since(start)
	if err != nil {
		// Unstick the workers so we do not leak goroutines.
		for _, w := range workers {
			w.Crash()
		}
		wg.Wait()
		return nil, fmt.Errorf("phish: %s(%s): %w", prog.Name, rootFn, err)
	}
	wg.Wait()

	res := &LocalResult{Value: val, Elapsed: elapsed, Output: ch.Output()}
	for _, w := range workers {
		res.Workers = append(res.Workers, w.Stats())
	}
	res.Totals = stats.JobTotals(res.Workers)
	if opt.SpanTrace {
		// The final span batches ride each worker's unregister drain;
		// wait for the collector count to turn nonzero and go quiet (the
		// bound covers runs whose sampling produced no spans at all).
		last, _ := ch.SpanStats()
		for i, stable := 0, 0; i < 200 && stable < 2; i++ {
			time.Sleep(2 * time.Millisecond)
			n, _ := ch.SpanStats()
			if n == last && n > 0 {
				stable++
			} else {
				stable, last = 0, n
			}
		}
		res.Spans = ch.Spans()
		_, res.SpansDropped = ch.SpanStats()
		for _, w := range workers {
			res.SpansDropped += w.SpanDrops()
		}
	}
	return res, nil
}

// SpeedupFromTimes computes the paper's P-processor speedup
// S_P = P * T1 / sum_i T_P(i), where t1 is the one-participant execution
// time and times are the per-participant times of the P-participant run.
func SpeedupFromTimes(t1 time.Duration, times []time.Duration) float64 {
	var sum time.Duration
	for _, t := range times {
		sum += t
	}
	if sum == 0 {
		return 0
	}
	p := float64(len(times))
	return p * float64(t1) / float64(sum)
}
