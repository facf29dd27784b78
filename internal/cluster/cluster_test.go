package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phish/internal/apps/fib"
	"phish/internal/apps/nqueens"
	"phish/internal/clearinghouse"
	"phish/internal/core"
	"phish/internal/idlesim"
	"phish/internal/jobmanager"
	"phish/internal/model"
	"phish/internal/types"
)

// fastOpts compresses the paper's minutes-scale polling to milliseconds so
// the whole macro-level lifecycle runs inside a unit test.
func fastOpts() Options {
	w := core.DefaultConfig()
	w.MaxStealFailures = 8
	w.StealTimeout = 20 * time.Millisecond
	w.HeartbeatEvery = 10 * time.Millisecond
	return Options{
		Worker: w,
		CH: clearinghouse.Config{
			UpdateEvery:      25 * time.Millisecond,
			HeartbeatTimeout: 250 * time.Millisecond,
		},
		JM: jobmanager.Config{
			BusyPoll:  20 * time.Millisecond,
			IdleRetry: 15 * time.Millisecond,
			WorkPoll:  10 * time.Millisecond,
		},
	}
}

// holdProg's "fan" root spawns k "leaf" tasks into one "sum" successor.
// Every leaf notes the worker running it and then spins until release —
// shown every worker that has run a leaf so far — says the test has seen
// what it waits for, yielding so that its own worker keeps answering steal
// requests and can be preempted; after deadline it gives up and sets
// timedOut. The job cannot finish before release does.
func holdProg(release func(ran map[types.WorkerID]bool) bool, deadline time.Time, timedOut *atomic.Bool) *core.Program {
	var mu sync.Mutex
	ran := map[types.WorkerID]bool{}
	p := core.NewProgram("hold")
	p.Register("fan", func(c model.Ctx) {
		k := c.Int(0)
		s := c.Successor("sum", int(k))
		for i := int64(0); i < k; i++ {
			c.Spawn("leaf", s.Cont(int(i)))
		}
	})
	p.Register("leaf", func(c model.Ctx) {
		mu.Lock()
		ran[c.Worker()] = true
		mu.Unlock()
		for {
			mu.Lock()
			done := release(ran)
			mu.Unlock()
			if done {
				break
			}
			if time.Now().After(deadline) {
				timedOut.Store(true)
				break
			}
			time.Sleep(100 * time.Microsecond)
			if c.Yield(nil) {
				return
			}
		}
		c.Return(int64(1))
	})
	p.Register("sum", func(c model.Ctx) {
		var total int64
		for i := 0; i < c.NArgs(); i++ {
			total += c.Int(i)
		}
		c.Return(total)
	})
	return p
}

func TestJobRunsOnIdleWorkstations(t *testing.T) {
	c := New(fastOpts())
	defer c.Close()
	for i := 0; i < 4; i++ {
		c.AddWorkstation(idlesim.Always{})
	}
	const leaves = 8
	var timedOut atomic.Bool
	spread := func(ran map[types.WorkerID]bool) bool { return len(ran) >= 2 }
	j := c.Submit(holdProg(spread, time.Now().Add(20*time.Second), &timedOut), "fan", []types.Value{int64(leaves)})
	v, err := j.Wait(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatal("no second workstation ran a leaf within 20s; expected the idle ones to pile on")
	}
	if got := v.(int64); got != leaves {
		t.Errorf("sum = %d, want %d", got, leaves)
	}
	// fan, the leaves and sum, each once: a leaf preempted at a Yield and
	// resumed where it was counts once.
	if tot := j.Totals(); tot.TasksExecuted-tot.CkptResumes != leaves+2 {
		t.Errorf("tasks executed = %d (%d resumed), want %d", tot.TasksExecuted, tot.CkptResumes, leaves+2)
	}
	if len(j.WorkerStats()) < 2 {
		t.Errorf("only %d workstations ever joined; expected the idle ones to pile on", len(j.WorkerStats()))
	}
}

func TestBusyWorkstationsStayOut(t *testing.T) {
	c := New(fastOpts())
	defer c.Close()
	busy := c.AddWorkstation(idlesim.Never{})
	c.AddWorkstation(idlesim.Always{})
	j := c.Submit(fib.Program(), fib.Root, fib.RootArgs(15))
	if _, err := j.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := busy.Stats().JobsStarted.Load(); n != 0 {
		t.Errorf("busy workstation started %d jobs; owner sovereignty violated", n)
	}
}

func TestOwnerReclaimMigratesWork(t *testing.T) {
	c := New(fastOpts())
	defer c.Close()

	var ownerBack atomic.Bool
	reclaimable := c.AddWorkstation(jobmanager.PolicyFunc(func(time.Time) bool {
		return !ownerBack.Load()
	}))
	c.AddWorkstation(idlesim.Always{})
	c.AddWorkstation(idlesim.Always{})

	// Workstation 1's owner returns once its worker has run a leaf, so that
	// worker holds one when it is reclaimed; the leaves then hold the job
	// open until the reclaim has landed.
	release := func(ran map[types.WorkerID]bool) bool {
		for id := range ran {
			if int32(id)>>20 == 1 {
				ownerBack.Store(true)
			}
		}
		return reclaimable.Stats().Reclaims.Load() > 0
	}
	const leaves = 8
	var timedOut atomic.Bool
	j := c.Submit(holdProg(release, time.Now().Add(20*time.Second), &timedOut), "fan", []types.Value{int64(leaves)})
	v, err := j.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatal("no worker of workstation 1 was reclaimed holding a leaf within 20s")
	}
	if got := v.(int64); got != leaves {
		t.Errorf("sum = %d, want %d", got, leaves)
	}
	if n := reclaimable.Stats().Reclaims.Load(); n == 0 {
		t.Error("owner returned but no worker was reclaimed")
	}
	// Work may be duplicated by recovery races (a crash-path fallback, or
	// a defensive root respawn while the real result was in flight) but
	// may never be lost.
	tot := j.Totals()
	if got, want := tot.TasksExecuted, int64(leaves+2); got < want {
		t.Errorf("tasks executed = %d < %d; work was lost", got, want)
	}
	if tot.TasksMigrated == 0 {
		t.Error("the reclaimed worker held a leaf but migrated nothing")
	}
}

func TestCrashRecovery(t *testing.T) {
	c := New(fastOpts())
	defer c.Close()
	for i := 0; i < 3; i++ {
		c.AddWorkstation(idlesim.Always{})
	}
	// A job long enough that the crash lands mid-flight.
	j := c.Submit(fib.Program(), fib.Root, fib.RootArgs(27))

	// Wait until at least two workers are in, then kill one abruptly.
	deadline := time.Now().Add(10 * time.Second)
	for len(j.LiveWorkers()) < 2 && !j.Done() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	live := j.LiveWorkers()
	if len(live) >= 2 {
		if !j.Crash(live[len(live)-1]) {
			t.Fatalf("could not crash worker %v", live[len(live)-1])
		}
	} else if !j.Done() {
		t.Fatalf("never saw 2 live workers (have %v)", live)
	}

	v, err := j.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.(int64), fib.Serial(27); got != want {
		t.Errorf("fib(27) = %d, want %d (crash corrupted the result)", got, want)
	}
	// The work lost in the crash was redone, so the executed-task total is
	// at least the fault-free count (strictly more when the crash landed
	// mid-run).
	if got, want := j.Totals().TasksExecuted, fib.TaskCount(27); got < want {
		t.Errorf("tasks executed = %d < %d; lost work was never redone", got, want)
	}
}

func TestWorkersRetireWhenParallelismShrinks(t *testing.T) {
	c := New(fastOpts())
	defer c.Close()
	stations := make([]*Workstation, 6)
	for i := range stations {
		stations[i] = c.AddWorkstation(idlesim.Always{})
	}
	// A long tail: nqueens spends its last stretch in few tasks, so extra
	// workers should give up and retire (or the job ends first; either
	// way nothing may hang).
	j := c.Submit(fib.Program(), fib.Root, fib.RootArgs(24))
	if _, err := j.Wait(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	// After completion every workstation is free again; submitting a new
	// job must work (pool round-robin hands it out).
	j2 := c.Submit(fib.Program(), fib.Root, fib.RootArgs(12))
	v, err := j2.Wait(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.(int64), fib.Serial(12); got != want {
		t.Errorf("second job: fib(12) = %d, want %d", got, want)
	}
}

func TestTwoJobsSpaceShare(t *testing.T) {
	c := New(fastOpts())
	defer c.Close()
	for i := 0; i < 4; i++ {
		c.AddWorkstation(idlesim.Always{})
	}
	j1 := c.Submit(fib.Program(), fib.Root, fib.RootArgs(22))
	j2 := c.Submit(nqueens.Program(), nqueens.Root, nqueens.RootArgs(9))
	v2, err := j2.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := j1.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v1.(int64), fib.Serial(22); got != want {
		t.Errorf("fib job = %d, want %d", got, want)
	}
	if got := v2.(int64); got != 352 {
		t.Errorf("nqueens job = %d, want 352", got)
	}
}
