package jobmanager

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phish/internal/clock"
	"phish/internal/jobq"
	"phish/internal/types"
	"phish/internal/wire"
)

// fakeSource hands out a fixed job while armed, and fails every request
// while err is set.
type fakeSource struct {
	mu    sync.Mutex
	armed bool
	spec  wire.JobSpec
	err   error
	asks  int
}

func (s *fakeSource) Request(types.WorkstationID) (wire.JobSpec, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.asks++
	if s.err != nil {
		return wire.JobSpec{}, false, s.err
	}
	if !s.armed {
		return wire.JobSpec{}, false, nil
	}
	return s.spec, true, nil
}

func (s *fakeSource) requests() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.asks
}

// fakeProc is a controllable worker process.
type fakeProc struct {
	done      chan struct{}
	reclaimed atomic.Bool
	reason    wire.LeaveReason
}

func (p *fakeProc) Reclaim() {
	if p.reclaimed.CompareAndSwap(false, true) {
		p.reason = wire.LeaveReclaimed
		close(p.done)
	}
}
func (p *fakeProc) Done() <-chan struct{}         { return p.done }
func (p *fakeProc) LeaveReason() wire.LeaveReason { return p.reason }

func (p *fakeProc) finish(reason wire.LeaveReason) {
	if p.reclaimed.CompareAndSwap(false, true) {
		p.reason = reason
		close(p.done)
	}
}

// fakeRunner records started procs.
type fakeRunner struct {
	mu    sync.Mutex
	procs []*fakeProc
	ids   []types.WorkerID
}

func (r *fakeRunner) Start(spec wire.JobSpec, id types.WorkerID) (WorkerProc, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := &fakeProc{done: make(chan struct{})}
	r.procs = append(r.procs, p)
	r.ids = append(r.ids, id)
	return p, nil
}

func (r *fakeRunner) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.procs)
}

func (r *fakeRunner) last() *fakeProc {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.procs) == 0 {
		return nil
	}
	return r.procs[len(r.procs)-1]
}

func testConfig(clk clock.Clock) Config {
	return Config{
		BusyPoll:  5 * time.Minute,
		IdleRetry: 30 * time.Second,
		WorkPoll:  2 * time.Second,
		Clock:     clk,
	}
}

// idleSwitch is a concurrency-safe policy toggle.
type idleSwitch struct{ idle atomic.Bool }

func (s *idleSwitch) Idle(time.Time) bool { return s.idle.Load() }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestBusyOwnerPollsEveryFiveMinutes(t *testing.T) {
	clk := clock.NewFake()
	src := &fakeSource{armed: true, spec: wire.JobSpec{ID: 1}}
	run := &fakeRunner{}
	sw := &idleSwitch{} // busy
	m := New(1, sw, src, run, testConfig(clk))
	go m.Run()
	defer m.Stop()

	// Busy: the manager must be sleeping on BusyPoll, not requesting jobs.
	waitFor(t, "busy sleep", func() bool { return clk.Waiters() >= 1 })
	if src.requests() != 0 {
		t.Fatal("requested a job while the owner was active")
	}
	// Owner logs out; the manager only notices at the next 5-minute poll.
	sw.idle.Store(true)
	clk.Advance(4 * time.Minute)
	time.Sleep(5 * time.Millisecond)
	if run.count() != 0 {
		t.Fatal("noticed idleness before the poll interval elapsed")
	}
	clk.Advance(2 * time.Minute)
	waitFor(t, "worker start", func() bool { return run.count() == 1 })
}

func TestEmptyPoolRetriesEveryThirtySeconds(t *testing.T) {
	clk := clock.NewFake()
	src := &fakeSource{} // pool empty
	run := &fakeRunner{}
	sw := &idleSwitch{}
	sw.idle.Store(true)
	m := New(1, sw, src, run, testConfig(clk))
	go m.Run()
	defer m.Stop()

	waitFor(t, "first request", func() bool { return src.requests() == 1 })
	for i := 2; i <= 4; i++ {
		waitFor(t, "retry sleep", func() bool { return clk.Waiters() >= 1 })
		clk.Advance(30 * time.Second)
		want := i
		waitFor(t, "another request", func() bool { return src.requests() >= want })
	}
	if run.count() != 0 {
		t.Fatal("started a worker with an empty pool")
	}
	// A job appears; next retry picks it up.
	src.mu.Lock()
	src.armed = true
	src.spec = wire.JobSpec{ID: 7}
	src.mu.Unlock()
	clk.Advance(30 * time.Second)
	waitFor(t, "worker start", func() bool { return run.count() == 1 })
	if st := m.Stats(); st.JobsStarted.Load() != 1 {
		t.Errorf("jobs started = %d", st.JobsStarted.Load())
	}
}

func TestOwnerReturnKillsWorkerWithinPoll(t *testing.T) {
	clk := clock.NewFake()
	src := &fakeSource{armed: true, spec: wire.JobSpec{ID: 1}}
	run := &fakeRunner{}
	sw := &idleSwitch{}
	sw.idle.Store(true)
	m := New(1, sw, src, run, testConfig(clk))
	go m.Run()
	defer m.Stop()

	waitFor(t, "worker start", func() bool { return run.count() == 1 })
	proc := run.last()
	// Owner returns; the 2-second work poll must catch it.
	sw.idle.Store(false)
	waitFor(t, "work poll sleep", func() bool { return clk.Waiters() >= 1 })
	clk.Advance(2 * time.Second)
	waitFor(t, "reclaim", func() bool { return proc.reclaimed.Load() })
	if got := m.Stats().Reclaims.Load(); got == 0 {
		t.Error("reclaim not counted")
	}
}

func TestWorkerExitRequestsNextJob(t *testing.T) {
	clk := clock.NewFake()
	src := &fakeSource{armed: true, spec: wire.JobSpec{ID: 1}}
	run := &fakeRunner{}
	sw := &idleSwitch{}
	sw.idle.Store(true)
	m := New(1, sw, src, run, testConfig(clk))
	go m.Run()
	defer m.Stop()

	waitFor(t, "worker 1", func() bool { return run.count() == 1 })
	src.mu.Lock()
	src.spec = wire.JobSpec{ID: 2}
	src.mu.Unlock()
	run.last().finish(wire.LeaveJobDone)
	// The manager asks again immediately (still idle, pool non-empty).
	waitFor(t, "worker 2", func() bool { return run.count() == 2 })
	if got := m.Stats().Finished.Load(); got != 1 {
		t.Errorf("finished = %d, want 1", got)
	}
	run.last().finish(wire.LeaveNoWork)
	waitFor(t, "retired count", func() bool { return m.Stats().Retired.Load() == 1 })
}

// A worker that leaves with its job done can leave before the pool has
// retired that job. The manager does not start the finished job again: it
// treats the offer as an empty pool and retries after IdleRetry, and a
// request that fails on the way (a PhishJobQ hiccup) does not make it
// forget which job that was.
func TestFinishedJobNotRestarted(t *testing.T) {
	clk := clock.NewFake()
	src := &fakeSource{armed: true, spec: wire.JobSpec{ID: 1}}
	run := &fakeRunner{}
	sw := &idleSwitch{}
	sw.idle.Store(true)
	m := New(1, sw, src, run, testConfig(clk))
	go m.Run()
	defer m.Stop()

	waitFor(t, "worker 1", func() bool { return run.count() == 1 })
	waitFor(t, "work poll sleep", func() bool { return clk.Waiters() >= 1 })
	run.last().finish(wire.LeaveJobDone)
	waitFor(t, "the poll after the job", func() bool { return src.requests() == 2 })
	// Each retry waits a whole IdleRetry. The first shares the clock with
	// the work poll that supervising the finished worker left armed; its
	// advance fires both.
	armed := 2
	retry := func(want int) {
		t.Helper()
		waitFor(t, "retry sleep", func() bool { return clk.Waiters() >= armed })
		armed = 1
		clk.Advance(30*time.Second - time.Millisecond)
		time.Sleep(2 * time.Millisecond)
		if got := src.requests(); got != want-1 {
			t.Fatalf("asked again before IdleRetry (%d requests, want %d)", got, want-1)
		}
		clk.Advance(time.Millisecond)
		waitFor(t, "the retry", func() bool { return src.requests() == want })
	}
	retry(3) // the pool still offers job 1
	src.mu.Lock()
	src.err = errors.New("jobq unreachable")
	src.mu.Unlock()
	retry(4) // the request fails
	src.mu.Lock()
	src.err = nil
	src.mu.Unlock()
	retry(5) // job 1 again, after the failure
	if run.count() != 1 {
		t.Fatalf("%d workers started; the finished job was started again", run.count())
	}
	if st := m.Stats(); st.EmptyPolls.Load() != 3 || st.SourceErrors.Load() != 1 {
		t.Errorf("empty polls %d, source errors %d; want 3 and 1", st.EmptyPolls.Load(), st.SourceErrors.Load())
	}
	// A new job starts at the next retry.
	src.mu.Lock()
	src.spec = wire.JobSpec{ID: 2}
	src.mu.Unlock()
	waitFor(t, "retry sleep", func() bool { return clk.Waiters() >= 1 })
	clk.Advance(30 * time.Second)
	waitFor(t, "worker 2", func() bool { return run.count() == 2 })
}

func TestWorkerIDsNeverRepeat(t *testing.T) {
	clk := clock.NewFake()
	src := &fakeSource{armed: true, spec: wire.JobSpec{ID: 1}}
	run := &fakeRunner{}
	sw := &idleSwitch{}
	sw.idle.Store(true)
	m := New(3, sw, src, run, testConfig(clk))
	go m.Run()
	defer m.Stop()

	for i := 1; i <= 5; i++ {
		n := i
		waitFor(t, "worker start", func() bool { return run.count() == n })
		run.last().finish(wire.LeaveNoWork)
	}
	run.mu.Lock()
	defer run.mu.Unlock()
	seen := map[types.WorkerID]bool{}
	for _, id := range run.ids {
		if seen[id] {
			t.Fatalf("worker id %d reused", id)
		}
		seen[id] = true
		if int32(id)/workerIDStride != 3 {
			t.Fatalf("worker id %d does not embed workstation 3", id)
		}
	}
}

func TestStopReclaimsRunningWorker(t *testing.T) {
	clk := clock.NewFake()
	src := &fakeSource{armed: true, spec: wire.JobSpec{ID: 1}}
	run := &fakeRunner{}
	sw := &idleSwitch{}
	sw.idle.Store(true)
	m := New(1, sw, src, run, testConfig(clk))
	done := make(chan struct{})
	go func() { m.Run(); close(done) }()

	waitFor(t, "worker start", func() bool { return run.count() == 1 })
	m.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Stop")
	}
	if !run.last().reclaimed.Load() {
		t.Error("Stop left the worker running")
	}
}

func TestLoadThresholdPolicy(t *testing.T) {
	load := 0.9
	p := LoadThreshold(func(time.Time) float64 { return load }, 0.5)
	if p.Idle(time.Now()) {
		t.Error("high load should not be idle")
	}
	load = 0.1
	if !p.Idle(time.Now()) {
		t.Error("low load should be idle")
	}
}

// A plain poll is not skipped for a job id the manager has never finished,
// 0 included.
func TestJobIDZeroStartsOnFirstPoll(t *testing.T) {
	clk := clock.NewFake()
	src := &fakeSource{armed: true, spec: wire.JobSpec{ID: 0}}
	run := &fakeRunner{}
	sw := &idleSwitch{}
	sw.idle.Store(true)
	m := New(1, sw, src, run, testConfig(clk))
	go m.Run()
	defer m.Stop()
	waitFor(t, "worker start", func() bool { return run.count() == 1 })
	if n := src.requests(); n != 1 {
		t.Errorf("%d requests before the start, want 1", n)
	}
}

// heldPool is a HoldingSource over a real pool, holding on the test clock.
type heldPool struct {
	pool *jobq.Pool
	clk  clock.Clock
	asks atomic.Int64
}

func (s *heldPool) Request(types.WorkstationID) (wire.JobSpec, bool, error) {
	panic("a holding source is not polled")
}

func (s *heldPool) Await(_ types.WorkstationID, skip types.JobID, hold time.Duration, cancel <-chan struct{}) (wire.JobSpec, bool, error) {
	s.asks.Add(1)
	spec, ok := s.pool.Await(skip, s.clk.After(hold), cancel)
	return spec, ok, nil
}

func startHeld(t *testing.T) (*Manager, *heldPool, *fakeRunner, *clock.Fake) {
	t.Helper()
	clk := clock.NewFake()
	src := &heldPool{pool: jobq.NewPool(), clk: clk}
	run := &fakeRunner{}
	sw := &idleSwitch{}
	sw.idle.Store(true)
	m := New(1, sw, src, run, testConfig(clk))
	go m.Run()
	t.Cleanup(m.Stop)
	waitFor(t, "first hold", func() bool { return clk.Waiters() == 1 })
	return m, src, run, clk
}

// A held request starts a submitted job without the clock moving. After a
// job-done leave the request skips that job until it is retired, and the
// next job submitted starts at once.
func TestHeldRequestStartsJobAtSubmit(t *testing.T) {
	_, src, run, _ := startHeld(t)
	first := src.pool.Submit(wire.JobSpec{Name: "first"})
	waitFor(t, "worker 1", func() bool { return run.count() == 1 })
	run.last().finish(wire.LeaveJobDone)
	waitFor(t, "the hold after the job", func() bool { return src.asks.Load() == 2 })
	time.Sleep(2 * time.Millisecond)
	src.pool.Done(first)
	time.Sleep(2 * time.Millisecond)
	if run.count() != 1 {
		t.Fatal("the finished job was started again")
	}
	src.pool.Submit(wire.JobSpec{Name: "second"})
	waitFor(t, "worker 2", func() bool { return run.count() == 2 })
}

// Stop ends a held request at once.
func TestStopDuringHold(t *testing.T) {
	m, _, _, _ := startHeld(t)
	t0 := time.Now()
	m.Stop()
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Errorf("Stop took %v with a request held", d)
	}
}

// An empty pool is asked once per IdleRetry, as the paper's poll asks it.
func TestHeldEmptyPoolAskedOncePerIdleRetry(t *testing.T) {
	m, src, run, clk := startHeld(t)
	for i := int64(1); i <= 4; i++ {
		clk.Advance(30*time.Second - time.Millisecond)
		time.Sleep(2 * time.Millisecond)
		if n := src.asks.Load(); n != i {
			t.Fatalf("%d requests before the hold ran out, want %d", n, i)
		}
		clk.Advance(time.Millisecond)
		waitFor(t, "the next hold", func() bool { return src.asks.Load() == i+1 && clk.Waiters() == 1 })
	}
	if st := m.Stats(); st.EmptyPolls.Load() != 4 || run.count() != 0 {
		t.Errorf("empty polls %d, workers %d; want 4 and 0", st.EmptyPolls.Load(), run.count())
	}
}
