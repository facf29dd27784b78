package core_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phish/internal/clearinghouse"
	"phish/internal/clock"
	"phish/internal/core"
	"phish/internal/model"
	"phish/internal/phishnet"
	"phish/internal/stats"
	"phish/internal/types"
	"phish/internal/wire"
)

// testProg is a fib-like program local to these tests (kept separate from
// internal/apps/fib to avoid an import cycle through the public package).
// atLeaf, when not nil, runs at the top of every leaf.
func testProg(atLeaf func(model.Ctx)) *core.Program {
	p := core.NewProgram("coretest")
	p.Register("fib", func(c model.Ctx) {
		n := c.Int(0)
		if n < 2 {
			if atLeaf != nil {
				atLeaf(c)
			}
			c.Return(n)
			return
		}
		s := c.Successor("sum", 2)
		c.Spawn1("fib", s.Cont(0), n-1)
		c.Spawn1("fib", s.Cont(1), n-2)
	})
	p.Register("sum", func(c model.Ctx) { c.Return(c.Int(0) + c.Int(1)) })
	return p
}

func fibVal(n int64) int64 {
	if n < 2 {
		return n
	}
	return fibVal(n-1) + fibVal(n-2)
}

func fibTasks(n int64) int64 {
	if n < 2 {
		return 1
	}
	return fibTasks(n-1) + fibTasks(n-2) + 2
}

// rig is a hand-wired job: fabric, clearinghouse, and a set of workers the
// test starts and stops itself (no jobmanagers).
type rig struct {
	t    *testing.T
	fab  *phishnet.Fabric
	ch   *clearinghouse.Clearinghouse
	prog *core.Program
	cfg  core.Config

	mu      sync.Mutex
	workers map[types.WorkerID]*core.Worker
	wg      sync.WaitGroup
}

func newRig(t *testing.T, rootN int64) *rig {
	t.Helper()
	fab := phishnet.NewFabric()
	spec := wire.JobSpec{ID: 1, Name: "coretest", Program: "coretest",
		RootFn: "fib", RootArgs: []types.Value{rootN}}
	chCfg := clearinghouse.DefaultConfig()
	chCfg.UpdateEvery = 20 * time.Millisecond
	ch := clearinghouse.New(spec, fab.Attach(types.ClearinghouseID), chCfg)
	go ch.Run()
	cfg := core.DefaultConfig()
	cfg.StealTimeout = 50 * time.Millisecond
	r := &rig{t: t, fab: fab, ch: ch, prog: testProg(nil), cfg: cfg,
		workers: make(map[types.WorkerID]*core.Worker)}
	t.Cleanup(func() {
		r.mu.Lock()
		for _, w := range r.workers {
			w.Crash()
		}
		r.mu.Unlock()
		r.wg.Wait()
		ch.Stop()
		fab.Close()
	})
	return r
}

func (r *rig) addWorker(id types.WorkerID) *core.Worker {
	r.t.Helper()
	w := core.NewWorker(1, id, r.prog, r.fab.Attach(id), r.cfg, clock.System)
	r.mu.Lock()
	r.workers[id] = w
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = w.Run()
	}()
	return w
}

// totals sums the workers' counters once every worker has returned from
// Run, waiting at most 10 s: a worker folds its last counts on its way out,
// which can be after the root result has landed.
func (r *rig) totals() stats.Snapshot {
	r.t.Helper()
	exited := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		r.t.Log("workers still running; their counts may be short")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var snaps []stats.Snapshot
	for _, w := range r.workers {
		snaps = append(snaps, w.Stats())
	}
	return stats.JobTotals(snaps)
}

func (r *rig) wait(d time.Duration) int64 {
	r.t.Helper()
	v, err := r.ch.WaitResult(d)
	if err != nil {
		r.t.Fatal(err)
	}
	return v.(int64)
}

func TestSingleWorkerJob(t *testing.T) {
	r := newRig(t, 15)
	r.addWorker(0)
	if got, want := r.wait(20*time.Second), fibVal(15); got != want {
		t.Errorf("result = %d, want %d", got, want)
	}
	tot := r.totals()
	if got, want := tot.TasksExecuted, fibTasks(15); got != want {
		t.Errorf("tasks executed = %d, want %d", got, want)
	}
	if tot.TasksStolen != 0 || tot.NonLocalSynchs != 0 || tot.TasksRedone != 0 {
		t.Errorf("single worker had distributed activity: %+v", tot)
	}
}

func TestFourWorkersConserveTasks(t *testing.T) {
	r := newRig(t, 20)
	for i := 0; i < 4; i++ {
		r.addWorker(types.WorkerID(i))
	}
	if got, want := r.wait(30*time.Second), fibVal(20); got != want {
		t.Errorf("result = %d, want %d", got, want)
	}
	tot := r.totals()
	if got, want := tot.TasksExecuted, fibTasks(20); got != want {
		t.Errorf("tasks executed = %d, want %d", got, want)
	}
	if tot.Orphans != 0 {
		t.Errorf("fault-free run dropped %d results", tot.Orphans)
	}
}

func TestLateJoinerParticipates(t *testing.T) {
	// Join on observed progress, not a fixed sleep: a fast machine can
	// finish a small root before a sleeping joiner ever registers.
	r := newRig(t, 30)
	w0 := r.addWorker(0)
	for w0.Stats().TasksExecuted < 1000 {
		time.Sleep(time.Millisecond)
	}
	late := r.addWorker(7)
	if got, want := r.wait(60*time.Second), fibVal(30); got != want {
		t.Errorf("result = %d, want %d", got, want)
	}
	if late.Stats().TasksExecuted == 0 {
		t.Error("late joiner never executed a task (idle-initiated join failed)")
	}
	if got, want := r.totals().TasksExecuted, fibTasks(30); got != want {
		t.Errorf("tasks executed = %d, want %d", got, want)
	}
}

func TestReclaimMigratesExactly(t *testing.T) {
	r := newRig(t, 26)
	// Worker 0 starts the job alone and is reclaimed from inside its first
	// leaf, once workers 1 and 2 are members: deep in the tree, with its
	// deque and join table full, and before the job can finish.
	var w0 atomic.Pointer[core.Worker]
	var once sync.Once
	r.prog = testProg(func(c model.Ctx) {
		if c.Worker() != 0 {
			return
		}
		once.Do(func() {
			for deadline := time.Now().Add(10 * time.Second); len(r.ch.LiveWorkers()) < 3 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			w0.Load().Reclaim()
		})
	})
	w0.Store(r.addWorker(0))
	for deadline := time.Now().Add(10 * time.Second); w0.Load().Stats().TasksExecuted == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker 0 never started the job")
		}
	}
	r.addWorker(1)
	r.addWorker(2)
	if got, want := r.wait(60*time.Second), fibVal(26); got != want {
		t.Errorf("result = %d, want %d", got, want)
	}
	tot := r.totals()
	if tot.TasksRedone == 0 {
		if got, want := tot.TasksExecuted, fibTasks(26); got != want {
			t.Errorf("tasks executed = %d, want %d after clean migration", got, want)
		}
	} else if got, want := tot.TasksExecuted, fibTasks(26); got < want {
		t.Errorf("tasks executed = %d < %d (work lost)", got, want)
	}
	if w := w0.Load(); w.LeaveReason() != wire.LeaveReclaimed && w.LeaveReason() != wire.LeaveCrash {
		t.Errorf("leave reason = %v", w.LeaveReason())
	}
}

func TestCrashIsRedone(t *testing.T) {
	r := newRig(t, 26)
	r.cfg.HeartbeatEvery = 5 * time.Millisecond
	r.addWorker(0)
	time.Sleep(20 * time.Millisecond)
	victim := r.addWorker(1)
	time.Sleep(30 * time.Millisecond)
	victim.Crash()
	// Without heartbeats configured on the clearinghouse in this rig, the
	// crash is detected by... nothing. So tell the clearinghouse
	// explicitly, as the cluster's heartbeat path would.
	// (The cluster package tests the heartbeat-driven detection.)
	port := r.fab.Attach(99) // a bystander to report the death
	env := &wire.Envelope{Job: 1, From: 99, To: types.ClearinghouseID,
		Payload: wire.Unregister{Worker: 1, Reason: wire.LeaveCrash}}
	if err := port.Send(env); err != nil {
		t.Fatal(err)
	}
	if got, want := r.wait(60*time.Second), fibVal(26); got != want {
		t.Errorf("result after crash = %d, want %d", got, want)
	}
	if got, want := r.totals().TasksExecuted, fibTasks(26); got < want {
		t.Errorf("tasks executed = %d < %d (lost work not redone)", got, want)
	}
}

func TestEveryWorkerStealsUnderLoad(t *testing.T) {
	r := newRig(t, 24)
	for i := 0; i < 4; i++ {
		r.addWorker(types.WorkerID(i))
	}
	r.wait(60 * time.Second)
	tot := r.totals()
	if tot.TasksStolen == 0 {
		t.Error("no steals in a 4-worker run; work never spread")
	}
	// Locality: steals and messages are microscopic next to tasks.
	if tot.TasksStolen*100 > tot.TasksExecuted {
		t.Errorf("steals %d are not ≪ tasks %d", tot.TasksStolen, tot.TasksExecuted)
	}
	if tot.NonLocalSynchs*50 > tot.Synchronizations {
		t.Errorf("non-local synchs %d are not ≪ synchs %d", tot.NonLocalSynchs, tot.Synchronizations)
	}
}

func TestWorkingSetStaysSmall(t *testing.T) {
	// The paper's headline locality claim: millions of tasks, tens in
	// use. fib(22) executes ~80k tasks; LIFO keeps max-in-use ~depth.
	r := newRig(t, 22)
	for i := 0; i < 2; i++ {
		r.addWorker(types.WorkerID(i))
	}
	r.wait(60 * time.Second)
	tot := r.totals()
	if tot.MaxTasksInUse > 200 {
		t.Errorf("max tasks in use = %d; LIFO discipline should keep this near the spawn depth", tot.MaxTasksInUse)
	}
	if tot.TasksExecuted < 50000 {
		t.Errorf("suspiciously few tasks: %d", tot.TasksExecuted)
	}
}

// A task panic is said where the job's submitter is looking — the
// clearinghouse's output — with enough to find the task: worker, task id,
// Fn, the panic value and the frames the body died in. The process
// survives it, and so does the job: the Fn here panics only on its first
// attempt, and the second worker, handed the lost root, finishes.
func TestTaskPanicIsReportedAndSurvived(t *testing.T) {
	var tripped atomic.Bool
	prog := core.NewProgram("panicky")
	prog.Register("root", func(c model.Ctx) {
		if tripped.CompareAndSwap(false, true) {
			explode()
		}
		c.Return(int64(42))
	})
	fab := phishnet.NewFabric()
	defer fab.Close()
	spec := wire.JobSpec{ID: 1, Name: "panicky", Program: "panicky", RootFn: "root"}
	ch := clearinghouse.New(spec, fab.Attach(types.ClearinghouseID), clearinghouse.DefaultConfig())
	go ch.Run()
	defer ch.Stop()

	w0 := core.NewWorker(1, 0, prog, fab.Attach(0), core.DefaultConfig(), clock.System)
	done0 := make(chan struct{})
	go func() { _ = w0.Run(); close(done0) }()
	select {
	case <-done0:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker outlived its panicking task")
	}
	if w0.LeaveReason() != wire.LeaveCrash {
		t.Errorf("leave reason = %v, want a crash", w0.LeaveReason())
	}
	wants := []string{"worker 0", "t0.1", "(root)", "kaboom", "core_test.explode"}
	reported := func(out string) bool {
		for _, want := range wants {
			if !strings.Contains(out, want) {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(5 * time.Second); !reported(ch.Output()); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the clearinghouse's output does not carry the report (want %q):\n%s", wants, ch.Output())
		}
	}
	if n := strings.Count(ch.Output(), "\n"); n > 24 {
		t.Errorf("the report runs to %d lines; it should carry the first frames, not the whole stack", n)
	}

	w1 := core.NewWorker(1, 1, prog, fab.Attach(1), core.DefaultConfig(), clock.System)
	done1 := make(chan struct{})
	go func() { _ = w1.Run(); close(done1) }()
	defer func() { w1.Crash(); <-done1 }()
	// Report the death as the heartbeat timeout would (cf. TestCrashIsRedone).
	bystander := fab.Attach(99)
	if err := bystander.Send(&wire.Envelope{Job: 1, From: 99, To: types.ClearinghouseID,
		Payload: wire.Unregister{Worker: 0, Reason: wire.LeaveCrash}}); err != nil {
		t.Fatal(err)
	}
	v, err := ch.WaitResult(20 * time.Second)
	if err != nil {
		t.Fatalf("the job did not survive the panic: %v", err)
	}
	if v != int64(42) {
		t.Errorf("result = %v, want 42", v)
	}
}

//go:noinline
func explode() { panic("kaboom") }
