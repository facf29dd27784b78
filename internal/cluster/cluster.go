// Package cluster simulates a network of workstations running the full
// Phish stack inside one process: a PhishJobQ pool, a PhishJobManager per
// workstation driven by a (usually synthetic) owner-idleness policy, and,
// per submitted job, a clearinghouse plus the workers that idle
// workstations start and reclaim. Workers exchange real protocol messages
// over an in-memory fabric; only the wire and the CPUs differ from the
// paper's SparcStation network (see DESIGN.md, substitutions).
//
// The cluster is the testbed for the macro-level scheduler: workstations
// joining an ongoing computation when their owner leaves, being reclaimed
// when the owner returns (with task migration), retiring when a job's
// parallelism shrinks, and crash/redo fault injection.
package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"phish/internal/clearinghouse"
	"phish/internal/clock"
	"phish/internal/core"
	"phish/internal/jobmanager"
	"phish/internal/jobq"
	"phish/internal/phishnet"
	"phish/internal/stats"
	"phish/internal/telemetry"
	"phish/internal/types"
	"phish/internal/wire"
)

// Options configures a simulated cluster.
type Options struct {
	// Clock drives the macro-level polling (JobManagers, clearinghouse
	// periodic updates). Workers always run in real time — they do real
	// work. Nil means the system clock.
	Clock clock.Clock
	// Worker tunes every worker's micro scheduler. The zero value takes
	// core.DefaultConfig with MaxStealFailures=25 so workers retire when
	// parallelism shrinks, as the paper's do.
	Worker core.Config
	// CH tunes every job's clearinghouse.
	CH clearinghouse.Config
	// JM tunes every workstation's job manager.
	JM jobmanager.Config
	// Latency injects one-way message latency on each job's fabric.
	Latency time.Duration
	// StateDir, when non-empty, makes the control plane durable: the
	// PhishJobQ pool is backed by StateDir/jobq.wal and each job's
	// clearinghouse journals to StateDir/job-<id>.jnl. Durability is what
	// enables the crash fault injectors — Job.CrashClearinghouse /
	// RestartClearinghouse and Cluster.StopJobQ / RestartJobQ.
	StateDir string
	// Faults, when non-nil, interposes deterministic fault injection
	// (drop/duplicate/delay/partition) on every job's fabric. Each job's
	// Faults instance is seeded Seed+jobID, so jobs get independent but
	// reproducible fault streams; reach it via Job.Faults for dynamic
	// partitions.
	Faults *phishnet.FaultPlan
	// Telemetry gives every worker and clearinghouse its own
	// telemetry.Metrics (latency histograms; workers piggyback theirs on
	// heartbeats either way). Off by default — workers then pay only the
	// nil checks. Scrape a job's rollup via Job.ServeMetrics or
	// Job.ClusterSnapshot.
	Telemetry bool
}

// Cluster is the simulated NOW.
type Cluster struct {
	opts Options
	clk  clock.Clock

	mu       sync.Mutex
	pool     *jobq.Pool
	poolPath string        // non-empty when the pool is durable
	poolDown bool          // StopJobQ was called; requests fail until restart
	outage   chan struct{} // closed by StopJobQ: wakes held requests
	jobs     map[types.JobID]*Job
	stations []*Workstation
	closed   bool
}

// Job is one submitted parallel job and its per-job infrastructure.
type Job struct {
	ID   types.JobID
	Spec wire.JobSpec

	cluster *Cluster
	prog    *core.Program
	fabric  *phishnet.Fabric
	faults  *phishnet.Faults // nil without Options.Faults

	// The clearinghouse can be crashed and a recovered incarnation swapped
	// in (CrashClearinghouse/RestartClearinghouse); chMu guards the swap.
	chMu    sync.Mutex
	ch      *clearinghouse.Clearinghouse
	chPort  *phishnet.Port
	journal *clearinghouse.Journal // nil without Options.StateDir
	jnlPath string

	mu      sync.Mutex
	workers map[types.WorkerID]*core.Worker // every participant ever
	wdone   map[types.WorkerID]chan struct{}
	started time.Time
}

// Workstation is one simulated machine: a job manager plus its owner's
// policy.
type Workstation struct {
	ID  types.WorkstationID
	mgr *jobmanager.Manager
}

// New builds an empty cluster.
func New(opts Options) *Cluster {
	if opts.Clock == nil {
		opts.Clock = clock.System
	}
	if opts.Worker == (core.Config{}) {
		opts.Worker = core.DefaultConfig()
		opts.Worker.MaxStealFailures = 25
	}
	if opts.CH == (clearinghouse.Config{}) {
		opts.CH = clearinghouse.DefaultConfig()
	}
	if opts.CH.Clock == nil {
		opts.CH.Clock = opts.Clock
	}
	if opts.JM.Clock == nil {
		opts.JM.Clock = opts.Clock
	}
	c := &Cluster{
		opts:   opts,
		clk:    opts.Clock,
		pool:   jobq.NewPool(),
		outage: make(chan struct{}),
		jobs:   make(map[types.JobID]*Job),
	}
	if opts.StateDir != "" {
		c.poolPath = filepath.Join(opts.StateDir, "jobq.wal")
		pool, err := jobq.NewDurablePool(c.poolPath)
		if err != nil {
			// The cluster is a test harness; an unusable StateDir is a
			// harness misconfiguration, surfaced like a duplicate Attach.
			panic(fmt.Sprintf("cluster: durable pool: %v", err))
		}
		c.pool = pool
	}
	return c
}

// Pool exposes the current PhishJobQ pool (diagnostics and tests). Note
// that RestartJobQ replaces the pool instance when it is durable.
func (c *Cluster) Pool() *jobq.Pool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pool
}

// StopJobQ simulates a PhishJobQ process crash: job requests start
// failing, held ones included (JobManagers count them as SourceErrors and
// keep polling on their ordinary cadence), and the durable pool's log is
// closed, as a dead process's would be.
func (c *Cluster) StopJobQ() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.poolDown {
		close(c.outage)
	}
	c.poolDown = true
	_ = c.pool.CloseStore()
}

// RestartJobQ brings the PhishJobQ back up. With a StateDir the pool is
// rebuilt from its on-disk log — exactly what a restarted phish jobq
// process does — so submitted jobs and their ids survive the outage;
// without one, the in-memory pool simply resumes.
func (c *Cluster) RestartJobQ() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.poolPath != "" {
		pool, err := jobq.NewDurablePool(c.poolPath)
		if err != nil {
			return err
		}
		c.pool = pool
	}
	if c.poolDown {
		c.outage = make(chan struct{})
	}
	c.poolDown = false
	return nil
}

// Submit places a job in the PhishJobQ. Idle workstations will pick it up;
// nothing runs until one does (start a workstation with an always-idle
// owner to mimic the paper's "the first worker starts on the submitting
// user's own workstation").
func (c *Cluster) Submit(prog *core.Program, rootFn string, rootArgs []types.Value) *Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	spec := wire.JobSpec{
		Name:     prog.Name,
		Program:  prog.Name,
		RootFn:   rootFn,
		RootArgs: rootArgs,
	}
	id := c.pool.Submit(spec)
	spec.ID = id

	fab := phishnet.NewFabric()
	if c.opts.Latency > 0 {
		fab.SetLatency(c.opts.Latency)
	}
	var faults *phishnet.Faults
	if c.opts.Faults != nil {
		plan := *c.opts.Faults
		plan.Seed += int64(id)
		faults = phishnet.NewFaults(plan)
		fab.SetFaults(faults)
	}
	chCfg := c.opts.CH
	if c.opts.Telemetry {
		chCfg.Metrics = telemetry.NewMetrics()
	}
	var jnl *clearinghouse.Journal
	jnlPath := ""
	if c.opts.StateDir != "" {
		jnlPath = filepath.Join(c.opts.StateDir, fmt.Sprintf("job-%d.jnl", id))
		var err error
		jnl, err = clearinghouse.OpenJournal(jnlPath)
		if err != nil {
			panic(fmt.Sprintf("cluster: clearinghouse journal: %v", err))
		}
		chCfg.Journal = jnl
	}
	port := fab.Attach(types.ClearinghouseID)
	ch := clearinghouse.New(spec, port, chCfg)
	go ch.Run()

	j := &Job{
		ID:      id,
		Spec:    spec,
		cluster: c,
		prog:    prog,
		fabric:  fab,
		faults:  faults,
		ch:      ch,
		chPort:  port,
		journal: jnl,
		jnlPath: jnlPath,
		workers: make(map[types.WorkerID]*core.Worker),
		wdone:   make(map[types.WorkerID]chan struct{}),
		started: time.Now(),
	}
	c.jobs[id] = j
	// Retire the job from the pool the moment its result is in. The wait
	// polls so it survives clearinghouse restarts, and the Done retries
	// through PhishJobQ outages — a finished job must leave the (possibly
	// restarted) pool, or idle workstations would keep joining it.
	go func() {
		for {
			if _, err := j.Wait(100 * time.Millisecond); err == nil {
				break
			}
			if c.isClosed() {
				return
			}
		}
		for {
			c.mu.Lock()
			pool, down, closed := c.pool, c.poolDown, c.closed
			c.mu.Unlock()
			if closed {
				return
			}
			if !down {
				pool.Done(id)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	return j
}

func (c *Cluster) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// AddWorkstation adds a machine whose owner follows policy and starts its
// PhishJobManager.
func (c *Cluster) AddWorkstation(policy jobmanager.Policy) *Workstation {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := types.WorkstationID(len(c.stations) + 1)
	mgr := jobmanager.New(id, policy, poolSource{c}, &runner{c: c}, c.opts.JM)
	ws := &Workstation{ID: id, mgr: mgr}
	c.stations = append(c.stations, ws)
	go mgr.Run()
	return ws
}

// Stats exposes the workstation's macro-level counters.
func (w *Workstation) Stats() *jobmanager.Stats { return w.mgr.Stats() }

// Stop halts the workstation's job manager (reclaiming any worker).
func (w *Workstation) Stop() { w.mgr.Stop() }

// Close tears the whole cluster down.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	stations := append([]*Workstation(nil), c.stations...)
	jobs := make([]*Job, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	c.mu.Unlock()
	for _, ws := range stations {
		ws.Stop()
	}
	for _, j := range jobs {
		j.chMu.Lock()
		j.ch.Stop()
		if j.journal != nil {
			_ = j.journal.Close()
		}
		j.chMu.Unlock()
		j.fabric.Close()
	}
}

// clearinghouse returns the job's current clearinghouse incarnation.
func (j *Job) clearinghouse() *clearinghouse.Clearinghouse {
	j.chMu.Lock()
	defer j.chMu.Unlock()
	return j.ch
}

// Faults returns the job's fault injector (nil without Options.Faults).
func (j *Job) Faults() *phishnet.Faults { return j.faults }

// Wait blocks until the job's result arrives. It polls the current
// clearinghouse in short steps rather than parking on one incarnation, so
// a wait in flight survives CrashClearinghouse/RestartClearinghouse.
func (j *Job) Wait(timeout time.Duration) (types.Value, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		step := 50 * time.Millisecond
		if timeout > 0 {
			left := time.Until(deadline)
			if left <= 0 {
				return nil, fmt.Errorf("cluster: job %d: no result after %v", j.ID, timeout)
			}
			if left < step {
				step = left
			}
		}
		if v, err := j.clearinghouse().WaitResult(step); err == nil {
			return v, nil
		}
	}
}

// Done reports whether the job has completed.
func (j *Job) Done() bool { return j.clearinghouse().Done() }

// Output returns the job's clearinghouse-buffered output.
func (j *Job) Output() string { return j.clearinghouse().Output() }

// LiveWorkers lists currently participating worker ids.
func (j *Job) LiveWorkers() []types.WorkerID { return j.clearinghouse().LiveWorkers() }

// RootHost names the worker hosting the root task's lineage (NoWorker while
// a respawn is armed). Crashing it costs a full root redo; draining or
// reclaiming it merely migrates the lineage.
func (j *Job) RootHost() types.WorkerID { return j.clearinghouse().RootHost() }

// CrashClearinghouse kills the job's clearinghouse abruptly (fault
// injection): no shutdown messages, the fabric port detaches so worker
// traffic to it fails, and the journal file is closed the way a dead
// process's would be. Workers notice the send failures and enter their
// jittered re-register loop until RestartClearinghouse brings one back.
func (j *Job) CrashClearinghouse() {
	j.chMu.Lock()
	defer j.chMu.Unlock()
	j.ch.Stop()
	_ = j.chPort.Close()
	if j.journal != nil {
		_ = j.journal.Close()
	}
}

// RestartClearinghouse replays the journal and swaps in a recovered
// clearinghouse incarnation — the simulated equivalent of restarting the
// process on the same host. Re-registering workers resync against the
// recovered membership; a worker that died during the outage is declared
// crashed by the heartbeat timeout and its work redone. Requires
// Options.StateDir (the journal is what recovery reads).
func (j *Job) RestartClearinghouse() error {
	j.chMu.Lock()
	defer j.chMu.Unlock()
	if j.jnlPath == "" {
		return fmt.Errorf("cluster: job %d has no journal (set Options.StateDir)", j.ID)
	}
	rec, err := clearinghouse.ReplayJournal(j.jnlPath)
	if err != nil {
		return err
	}
	jnl, err := clearinghouse.OpenJournal(j.jnlPath)
	if err != nil {
		return err
	}
	cfg := j.cluster.opts.CH
	cfg.Journal = jnl
	if j.cluster.opts.Telemetry {
		cfg.Metrics = telemetry.NewMetrics()
	}
	port := j.fabric.Attach(types.ClearinghouseID)
	ch := clearinghouse.NewFromRecovery(rec, port, cfg)
	go ch.Run()
	j.ch, j.chPort, j.journal = ch, port, jnl
	return nil
}

// ClusterSnapshot returns the current clearinghouse incarnation's
// whole-job telemetry rollup (latest piggybacked worker reports).
func (j *Job) ClusterSnapshot() telemetry.ClusterSnapshot {
	return j.clearinghouse().ClusterSnapshot()
}

// ServeMetrics starts a telemetry HTTP endpoint for this job, serving the
// clearinghouse rollup at /metrics (Prometheus text) and /cluster.json
// (what phishtop polls). The snapshot goes through the current
// clearinghouse incarnation, so the endpoint survives
// CrashClearinghouse/RestartClearinghouse. Close the returned server when
// done.
func (j *Job) ServeMetrics(addr string) (*telemetry.Server, error) {
	s, err := telemetry.NewServer(addr)
	if err != nil {
		return nil, err
	}
	snap := func() telemetry.ClusterSnapshot { return j.ClusterSnapshot() }
	s.Handle("/metrics", telemetry.ClusterMetricsHandler(snap, nil))
	s.Handle("/cluster.json", telemetry.ClusterJSONHandler(snap))
	return s, nil
}

// WorkerStats snapshots every participant the job ever had.
func (j *Job) WorkerStats() []stats.Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]stats.Snapshot, 0, len(j.workers))
	for _, w := range j.workers {
		out = append(out, w.Stats())
	}
	return out
}

// Totals aggregates WorkerStats the way the paper's Table 2 does.
func (j *Job) Totals() stats.Snapshot { return stats.JobTotals(j.WorkerStats()) }

// Crash abruptly kills one live worker (fault injection): no migration,
// no unregister. Returns false if the worker is not currently alive.
func (j *Job) Crash(id types.WorkerID) bool {
	j.mu.Lock()
	w, ok := j.workers[id]
	j.mu.Unlock()
	if !ok {
		return false
	}
	w.Crash()
	return true
}

// ReclaimWorker simulates the workstation owner's return for one live
// worker (fault/churn injection): the worker migrates its tasks to another
// participant and unregisters. Returns false if the worker was never part
// of the job.
func (j *Job) ReclaimWorker(id types.WorkerID) bool {
	j.mu.Lock()
	w, ok := j.workers[id]
	j.mu.Unlock()
	if !ok {
		return false
	}
	w.Reclaim()
	return true
}

// DrainWorker starts a planned drain of one worker: its in-flight task is
// offered preemption at its next Yield, the deque (with checkpoints) is
// handed to a clearinghouse-chosen victim, and the worker unregisters.
// Returns false if the worker was never part of the job.
func (j *Job) DrainWorker(id types.WorkerID) bool {
	j.mu.Lock()
	w, ok := j.workers[id]
	j.mu.Unlock()
	if !ok {
		return false
	}
	w.Drain()
	return true
}

// WorkerDone returns a channel closed when the worker's Run loop has
// exited (nil for ids the job never started) — how tests and benchmarks
// time a drain handoff end to end.
func (j *Job) WorkerDone(id types.WorkerID) <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wdone[id]
}

// poolSource adapts the in-process pool to the manager's HoldingSource. It
// goes through the cluster on every request so it tracks pool swaps
// (RestartJobQ) and surfaces an error while the PhishJobQ is down — the
// managers treat that as "busy, poll later". A request held when StopJobQ
// is called fails the same way.
type poolSource struct{ c *Cluster }

var _ jobmanager.HoldingSource = poolSource{}

var errJobQDown = errors.New("cluster: jobq is down")

func (s poolSource) Request(types.WorkstationID) (wire.JobSpec, bool, error) {
	s.c.mu.Lock()
	pool, down := s.c.pool, s.c.poolDown
	s.c.mu.Unlock()
	if down {
		return wire.JobSpec{}, false, errJobQDown
	}
	spec, ok := pool.Request()
	return spec, ok, nil
}

// Await holds the request on the current pool for hold on the cluster's
// clock.
func (s poolSource) Await(_ types.WorkstationID, skip types.JobID, hold time.Duration, cancel <-chan struct{}) (wire.JobSpec, bool, error) {
	s.c.mu.Lock()
	pool, down, outage := s.c.pool, s.c.poolDown, s.c.outage
	s.c.mu.Unlock()
	if down {
		return wire.JobSpec{}, false, errJobQDown
	}
	// The pool wakes on one cancel channel; merge the manager's and the
	// outage's for the length of the request.
	done := make(chan struct{})
	defer close(done)
	stop := make(chan struct{})
	go func() {
		select {
		case <-cancel:
		case <-outage:
		case <-done:
			return
		}
		close(stop)
	}()
	spec, ok := pool.Await(skip, s.c.clk.After(hold), stop)
	if !ok {
		select {
		case <-outage:
			return wire.JobSpec{}, false, errJobQDown
		default:
		}
	}
	return spec, ok, nil
}

// runner starts simulated worker processes.
type runner struct{ c *Cluster }

// workerProc adapts a core.Worker to the manager's WorkerProc.
type workerProc struct {
	w    *core.Worker
	done chan struct{}
}

func (p *workerProc) Reclaim()                      { p.w.Reclaim() }
func (p *workerProc) Done() <-chan struct{}         { return p.done }
func (p *workerProc) LeaveReason() wire.LeaveReason { return p.w.LeaveReason() }

func (r *runner) Start(spec wire.JobSpec, id types.WorkerID) (jobmanager.WorkerProc, error) {
	r.c.mu.Lock()
	j, ok := r.c.jobs[spec.ID]
	closed := r.c.closed
	r.c.mu.Unlock()
	if !ok || closed {
		return nil, fmt.Errorf("cluster: job %d is gone", spec.ID)
	}
	if j.Done() {
		return nil, fmt.Errorf("cluster: job %d already complete", spec.ID)
	}
	port := j.fabric.Attach(id)
	wcfg := r.c.opts.Worker
	if r.c.opts.Telemetry {
		wcfg.Metrics = telemetry.NewMetrics()
	}
	w := core.NewWorker(spec.ID, id, j.prog, port, wcfg, clock.System)
	proc := &workerProc{w: w, done: make(chan struct{})}
	j.mu.Lock()
	j.workers[id] = w
	j.wdone[id] = proc.done
	j.mu.Unlock()
	go func() {
		defer close(proc.done)
		_ = w.Run()
	}()
	return proc, nil
}

// DebugDump renders every participant's scheduler state; for tests only,
// after the workers have been stopped.
func (j *Job) DebugDump() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out string
	for _, w := range j.workers {
		out += w.DebugDump()
	}
	return out
}
