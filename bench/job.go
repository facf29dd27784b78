package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"phish/internal/clearinghouse"
	"phish/internal/clock"
	"phish/internal/cluster"
	"phish/internal/core"
	"phish/internal/phishnet"
	"phish/internal/stats"
	"phish/internal/telemetry"
	"phish/internal/types"
	"phish/internal/wire"
)

// jobTimeout bounds one job. A job that hits it is a failed job; the
// timed loop then stops, so one hang cannot push a run past the contract's
// 180 s.
const jobTimeout = 60 * time.Second

// job is one parallel job: what to run, on how many workers, over which
// transport, and how to tell a right answer from a wrong one.
type job struct {
	prog  *core.Program
	root  string
	args  []types.Value
	p     int
	udp   bool                    // phishnet.ListenUDP on 127.0.0.1 instead of the in-memory fabric
	check func(types.Value) error // compares the root value with the serial reference
	tasks int64                   // expected Σ TasksExecuted; 0 when the count depends on the schedule
}

// jobResult is what one job leaves behind. A failed job (err != nil) keeps
// its counters for the post-mortem but contributes no timing.
type jobResult struct {
	makespan time.Duration // start of assembly → correct root value in hand
	err      error
	workers  []stats.Snapshot

	cj *cluster.Job // macro jobs only: where settle reads the worker counters

	// Traced jobs only.
	spans   []wire.Span
	dropped uint64
	rtt     telemetry.HistSnapshot // steal round trips, merged over workers
}

func (r *jobResult) totals() stats.Snapshot { return stats.JobTotals(r.workers) }

// sumExecTime is Σ over workers of thread CPU time spent in Worker.Run
// (JobTotals keeps the maximum instead, the paper's Table 2 convention).
func (r *jobResult) sumExecTime() time.Duration {
	var d time.Duration
	for _, w := range r.workers {
		d += w.ExecTime
	}
	return d
}

// verify applies the job's correctness gate to a finished run.
func (j *job) verify(v types.Value, workers []stats.Snapshot) error {
	if err := j.check(v); err != nil {
		return err
	}
	if got := stats.JobTotals(workers).TasksExecuted; j.tasks > 0 && got != j.tasks {
		return fmt.Errorf("tasks executed = %d, want %d", got, j.tasks)
	}
	return nil
}

// run assembles the job the way phish.RunLocal and cmd/phish do — a
// clearinghouse and p workers on fresh endpoints — and times it from
// outside. seed is the only randomness injected: it becomes every worker's
// core.Config.Seed (the runtime adds the worker id). traced turns on the
// span plane and attaches telemetry.Metrics; end-to-end numbers are taken
// with both off.
func (j *job) run(seed int64, traced bool) jobResult {
	var res jobResult
	t0 := time.Now()
	spec := wire.JobSpec{ID: 1, Name: j.prog.Name, Program: j.prog.Name, RootFn: j.root, RootArgs: j.args}
	var fab *phishnet.Fabric
	if !j.udp {
		fab = phishnet.NewFabric()
		defer fab.Close()
	}
	attach := func(id types.WorkerID) (phishnet.Conn, error) {
		if !j.udp {
			return fab.Attach(id), nil
		}
		return phishnet.ListenUDP(spec.ID, id, "127.0.0.1:0")
	}
	chConn, err := attach(types.ClearinghouseID)
	if err != nil {
		res.err = err
		return res
	}
	defer chConn.Close()
	ch := clearinghouse.New(spec, chConn, clearinghouse.DefaultConfig())
	go ch.Run()
	defer ch.Stop()

	cfg := core.DefaultConfig()
	cfg.Seed = seed
	var metrics *telemetry.Metrics
	if traced {
		metrics = telemetry.NewMetrics()
		cfg.Metrics = metrics
		cfg.SpanTrace = true
		// The collector's own per-worker cap, so that the worker's ring
		// is not what truncates a trace.
		cfg.SpanBuf = 1 << 18
	}
	workers := make([]*core.Worker, 0, j.p)
	var wg sync.WaitGroup
	for i := 0; i < j.p; i++ {
		conn, err := attach(types.WorkerID(i))
		if err != nil {
			res.err = err
			break
		}
		conn.SetPeer(types.ClearinghouseID, chConn.LocalAddr())
		w := core.NewWorker(spec.ID, types.WorkerID(i), j.prog, conn, cfg, clock.System)
		if u, ok := conn.(*phishnet.UDP); ok {
			// As cmd/phishworker does: retransmits and peer-gone reports
			// land in the worker's counters. Fault paths only.
			u.Instrument(w.Counters(), metrics, nil)
		}
		workers = append(workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker i gets CPU i. The vCPUs of a small VM are not equally
			// fast, and on the lopsided workloads (one worker does nearly
			// all the work) a kernel-chosen placement makes makespan
			// bimodal by more than the regression bound.
			pinThread(i)
			_ = w.Run()
		}()
	}

	var val types.Value
	if res.err == nil {
		val, res.err = ch.WaitResult(jobTimeout)
	}
	res.makespan = time.Since(t0)
	if res.err != nil {
		for _, w := range workers {
			w.Crash()
		}
	}
	wg.Wait()

	for _, w := range workers {
		res.workers = append(res.workers, w.Stats())
	}
	if res.err == nil {
		res.err = j.verify(val, res.workers)
	}
	if traced {
		res.spans, res.dropped = collectSpans(ch, workers)
		res.rtt = metrics.StealRTT().Snapshot()
	}
	return res
}

// collectSpans waits for the last span batches, which ride each worker's
// unregister, to reach the clearinghouse collector: until the count is
// nonzero and has stopped moving, or 400 ms.
func collectSpans(ch *clearinghouse.Clearinghouse, workers []*core.Worker) ([]wire.Span, uint64) {
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
	_, dropped := ch.SpanStats()
	for _, w := range workers {
		dropped += w.SpanDrops()
	}
	return ch.Spans(), dropped
}

var errWrongValue = errors.New("root value differs from the serial reference")
