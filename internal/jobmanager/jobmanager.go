// Package jobmanager implements the PhishJobManager: the per-workstation
// daemon of the macro-level scheduler (Section 3). It watches the owner's
// idleness policy, requests a job from the PhishJobQ when the workstation
// goes idle, starts a worker process for the assigned job, and kills the
// worker as soon as the owner returns.
//
// The paper's polling intervals — check every five minutes whether the
// users logged out, retry the job request every thirty seconds when the
// pool is empty, and check every two seconds for the owner's return while
// a worker runs — are the defaults here, driven through a clock.Clock so
// tests and the simulated cluster can compress hours into milliseconds.
// Against a PhishJobQ that can hold a request (HoldingSource), the
// empty-pool retry is instead the longest the request is held: a job
// submitted meanwhile is bound at once, and the paper's 30-second poll is
// what is left against an empty pool or an unreachable JobQ.
package jobmanager

import (
	"sync/atomic"
	"time"

	"phish/internal/clock"
	"phish/internal/types"
	"phish/internal/wire"
)

// Policy is the owner's idleness policy: the workstation may run parallel
// jobs exactly while Idle reports true. Owner sovereignty means this is
// entirely per-workstation.
type Policy interface {
	Idle(now time.Time) bool
}

// PolicyFunc adapts a function to a Policy.
type PolicyFunc func(now time.Time) bool

// Idle implements Policy.
func (f PolicyFunc) Idle(now time.Time) bool { return f(now) }

// LoadThreshold builds a policy that calls the workstation idle while the
// load signal is below threshold — the paper's example of a more liberal
// owner policy than "nobody logged in".
func LoadThreshold(load func(time.Time) float64, threshold float64) Policy {
	return PolicyFunc(func(now time.Time) bool { return load(now) < threshold })
}

// JobSource is where the manager asks for work (the PhishJobQ: a
// jobq.Client over TCP, or the pool directly in the simulated cluster).
// A plain JobSource is polled, the paper's way.
type JobSource interface {
	Request(ws types.WorkstationID) (wire.JobSpec, bool, error)
}

// HoldingSource is a JobSource that can hold a request open: Await returns
// a job other than skip (0: none) as soon as the pool has one, waiting up
// to hold for it. ok is false when the hold ran out or cancel closed.
type HoldingSource interface {
	JobSource
	Await(ws types.WorkstationID, skip types.JobID, hold time.Duration, cancel <-chan struct{}) (wire.JobSpec, bool, error)
}

// WorkerProc is a handle on one running worker process.
type WorkerProc interface {
	// Reclaim asks the worker to leave (migrate its tasks and
	// unregister); the owner has returned.
	Reclaim()
	// Done is closed when the worker has terminated.
	Done() <-chan struct{}
	// LeaveReason reports why it terminated (valid after Done).
	LeaveReason() wire.LeaveReason
}

// Runner starts worker processes on this workstation. The worker id is
// minted by the manager and unique across the job's lifetime.
type Runner interface {
	Start(spec wire.JobSpec, worker types.WorkerID) (WorkerProc, error)
}

// Config holds the polling intervals; zero values take the paper's
// defaults.
type Config struct {
	// BusyPoll is how often to re-check idleness while the owner is
	// active (paper: 5 minutes).
	BusyPoll time.Duration
	// IdleRetry is how often to re-request a job when the pool was empty
	// (paper: 30 seconds). A HoldingSource holds each request this long
	// instead, so a job submitted meanwhile starts at once.
	IdleRetry time.Duration
	// WorkPoll is how often to check for the owner's return while a
	// worker runs (paper: 2 seconds).
	WorkPoll time.Duration
	// DrainCooldown is how long the workstation sits out after its worker
	// was drained for degradation (wire.LeaveDrained) before requesting
	// work again. A sick machine that rejoins moments after its drain
	// defeats the drain. Zero takes 4×IdleRetry.
	DrainCooldown time.Duration
	// Clock drives the polling; nil means the system clock.
	Clock clock.Clock
}

// DefaultConfig returns the paper's intervals.
func DefaultConfig() Config {
	return Config{
		BusyPoll:  5 * time.Minute,
		IdleRetry: 30 * time.Second,
		WorkPoll:  2 * time.Second,
		Clock:     clock.System,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.BusyPoll <= 0 {
		c.BusyPoll = d.BusyPoll
	}
	if c.IdleRetry <= 0 {
		c.IdleRetry = d.IdleRetry
	}
	if c.WorkPoll <= 0 {
		c.WorkPoll = d.WorkPoll
	}
	if c.DrainCooldown <= 0 {
		c.DrainCooldown = 4 * c.IdleRetry
	}
	if c.Clock == nil {
		c.Clock = clock.System
	}
	return c
}

// Stats counts the manager's macro-level events.
type Stats struct {
	// JobsStarted counts workers launched.
	JobsStarted atomic.Int64
	// Reclaims counts workers killed because the owner returned.
	Reclaims atomic.Int64
	// Finished counts workers that ended with the job done.
	Finished atomic.Int64
	// Retired counts workers that left because parallelism shrank.
	Retired atomic.Int64
	// Drained counts workers the clearinghouse drained for degradation;
	// each one puts the workstation into its DrainCooldown.
	Drained atomic.Int64
	// EmptyPolls counts job requests that found the pool empty (a held
	// request: that stayed empty for the whole hold).
	EmptyPolls atomic.Int64
	// SourceErrors counts job requests that failed outright (PhishJobQ
	// unreachable). The manager treats these like an empty pool — the
	// PhishJobQ is "busy, poll later" — and retries on the same cadence,
	// so a restarted queue picks the workstation right back up.
	SourceErrors atomic.Int64
}

// workerIDStride spaces worker ids so that a workstation can start up to
// this many workers over a job's lifetime without id reuse.
const workerIDStride = 1 << 20

// Manager is one workstation's PhishJobManager.
type Manager struct {
	ws     types.WorkstationID
	policy Policy
	src    JobSource
	runner Runner
	cfg    Config
	clk    clock.Clock

	incarnation int32
	stats       Stats

	stopCh chan struct{}
	doneCh chan struct{}
}

// New builds a manager for workstation ws.
func New(ws types.WorkstationID, policy Policy, src JobSource, runner Runner, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	return &Manager{
		ws:     ws,
		policy: policy,
		src:    src,
		runner: runner,
		cfg:    cfg,
		clk:    cfg.Clock,
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
}

// Stats exposes the manager's counters.
func (m *Manager) Stats() *Stats { return &m.stats }

// Stop terminates the manager, reclaiming any running worker, and waits
// for Run to return.
func (m *Manager) Stop() {
	select {
	case <-m.stopCh:
	default:
		close(m.stopCh)
	}
	<-m.doneCh
}

// nextWorkerID mints a job-unique worker id: the workstation id spaced by
// a stride, plus the incarnation count, so no two workers this manager
// ever starts share an id.
func (m *Manager) nextWorkerID() types.WorkerID {
	m.incarnation++
	return types.WorkerID(int32(m.ws)*workerIDStride + m.incarnation)
}

// WorkerStation recovers the workstation that minted a worker id. Fault
// injectors and monitors use it to reason about the machine behind a
// sequence of worker incarnations.
func WorkerStation(id types.WorkerID) types.WorkstationID {
	return types.WorkstationID(int32(id) / workerIDStride)
}

// Run is the daemon loop; it blocks until Stop.
func (m *Manager) Run() {
	defer close(m.doneCh)
	// skip is the job the last worker left done, while skipping. The pool
	// retires a job when its submitter hears the result, which can be after
	// the worker has left and the manager has asked again; granted that job,
	// the manager would start a worker for a job that is over.
	var skip types.JobID
	var skipping bool
	held, _ := m.src.(HoldingSource)
	for {
		if m.stopped() {
			return
		}
		if !m.policy.Idle(m.clk.Now()) {
			// Owner active: the paper's manager re-checks every 5 min.
			if !m.sleep(m.cfg.BusyPoll) {
				return
			}
			continue
		}
		var spec wire.JobSpec
		var ok bool
		var err error
		if held != nil {
			// The pool applies the skip; pool ids are never reused, so a
			// stale one skips nothing.
			spec, ok, err = held.Await(m.ws, skip, m.cfg.IdleRetry, m.stopCh)
		} else {
			spec, ok, err = m.src.Request(m.ws)
			if ok && skipping && spec.ID == skip {
				ok = false
			} else if err == nil {
				// A reply from the pool with another job or none ends
				// the skip: that job starts, or the finished one is
				// retired.
				skipping = false
			}
		}
		if m.stopped() {
			return
		}
		if err != nil || !ok {
			// An unreachable PhishJobQ is not fatal — it is "busy, poll
			// later", same as an empty pool, just counted apart. An empty
			// held reply has already waited its IdleRetry.
			if err != nil {
				m.stats.SourceErrors.Add(1)
			} else {
				m.stats.EmptyPolls.Add(1)
			}
			if (err != nil || held == nil) && !m.sleep(m.cfg.IdleRetry) {
				return
			}
			continue
		}
		proc, err := m.runner.Start(spec, m.nextWorkerID())
		if err != nil {
			if !m.sleep(m.cfg.IdleRetry) {
				return
			}
			continue
		}
		m.stats.JobsStarted.Add(1)
		m.supervise(proc)
		switch proc.LeaveReason() {
		case wire.LeaveDrained:
			// The clearinghouse judged this machine degraded: quarantine
			// it before offering its cycles again.
			if !m.sleep(m.cfg.DrainCooldown) {
				return
			}
		case wire.LeaveJobDone:
			skip, skipping = spec.ID, true
		}
	}
}

// supervise watches a running worker: every WorkPoll it checks whether the
// owner returned, killing the worker if so; it returns when the worker is
// gone for any reason.
func (m *Manager) supervise(proc WorkerProc) {
	for {
		select {
		case <-proc.Done():
			m.recordExit(proc)
			return
		case <-m.stopCh:
			proc.Reclaim()
			<-proc.Done()
			m.recordExit(proc)
			return
		case <-m.clk.After(m.cfg.WorkPoll):
			if !m.policy.Idle(m.clk.Now()) {
				proc.Reclaim()
				<-proc.Done()
				m.stats.Reclaims.Add(1)
				return
			}
		}
	}
}

func (m *Manager) recordExit(proc WorkerProc) {
	switch proc.LeaveReason() {
	case wire.LeaveJobDone:
		m.stats.Finished.Add(1)
	case wire.LeaveNoWork:
		m.stats.Retired.Add(1)
	case wire.LeaveReclaimed:
		m.stats.Reclaims.Add(1)
	case wire.LeaveDrained:
		m.stats.Drained.Add(1)
	}
}

func (m *Manager) stopped() bool {
	select {
	case <-m.stopCh:
		return true
	default:
		return false
	}
}

// sleep waits for d on the manager's clock; false means Stop was called.
func (m *Manager) sleep(d time.Duration) bool {
	select {
	case <-m.clk.After(d):
		return true
	case <-m.stopCh:
		return false
	}
}
