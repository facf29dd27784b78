package cluster

import (
	"math/rand"
	"testing"
	"time"

	"phish/internal/apps/fib"
	"phish/internal/apps/nqueens"
	"phish/internal/apps/pfold"
	"phish/internal/idlesim"
	"phish/internal/phishnet"
	"phish/internal/types"
)

// TestChurnSoak floods a simulated NOW with jobs while owners wander on
// and off their machines and random workers are crashed outright. Every
// job must finish with the right answer, no matter the interleaving of
// joins, reclaims (migration), retirements, and crash redos. This is the
// whole paper in one test.
func TestChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped with -short")
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	c := New(fastOpts())
	defer c.Close()

	// Half the machines have restless owners, half are dedicated.
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			c.AddWorkstation(idlesim.Always{})
		} else {
			c.AddWorkstation(idlesim.NewActivity(int64(i), time.Now(),
				30*time.Millisecond, 150*time.Millisecond, // busy
				50*time.Millisecond, 250*time.Millisecond, // idle
				true))
		}
	}

	type want struct {
		job   *Job
		check func(v types.Value) bool
		name  string
	}
	jobs := []want{
		{c.Submit(fib.Program(), fib.Root, fib.RootArgs(26)),
			func(v types.Value) bool { return v.(int64) == fib.Serial(26) }, "fib(26)"},
		{c.Submit(nqueens.Program(), nqueens.Root, nqueens.RootArgs(11)),
			func(v types.Value) bool { return v.(int64) == 2680 }, "nqueens(11)"},
		// The task tree of pfold(13, 5), leaves heavy enough on the grid
		// kernel for the job to outlast a few crashes.
		{c.Submit(pfold.Program(), pfold.Root, pfold.RootArgs(16, 8)),
			func(v types.Value) bool {
				return pfold.Foldings(v.([]int64)) == 6416596 // SAW(15)
			}, "pfold(16)"},
		{c.Submit(fib.Program(), fib.Root, fib.RootArgs(25)),
			func(v types.Value) bool { return v.(int64) == fib.Serial(25) }, "fib(25)"},
	}

	// A gremlin crashes random live workers while the jobs run.
	stopGremlin := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopGremlin:
				return
			case <-time.After(time.Duration(50+rng.Intn(150)) * time.Millisecond):
				j := jobs[rng.Intn(len(jobs))].job
				live := j.LiveWorkers()
				if len(live) > 1 {
					j.Crash(live[rng.Intn(len(live))])
				}
			}
		}
	}()

	for _, w := range jobs {
		v, err := w.job.Wait(120 * time.Second)
		if err != nil {
			close(stopGremlin)
			t.Fatalf("%s never finished: %v", w.name, err)
		}
		if !w.check(v) {
			t.Errorf("%s: wrong answer %v", w.name, v)
		}
	}
	close(stopGremlin)

	// Post-mortem sanity: nothing negative, no lost work (crashes can
	// only add redo duplicates).
	for _, w := range jobs {
		tot := w.job.Totals()
		if tot.TasksExecuted <= 0 {
			t.Errorf("%s: nonsense totals %+v", w.name, tot)
		}
	}
}

// TestCrashRestartSoak layers control-plane failures on top of the churn:
// the fault fabric (fixed seed) duplicates and delay-reorders messages,
// random workers are crashed outright, each job's clearinghouse gets
// killed and restarted from its journal mid-run, and the PhishJobQ goes
// through full stop/restart outages. Every job must still produce the
// exact answer, and conservation must hold — the executed-task total is at
// least the fault-free task count, because lost work is redone (crashes
// only add duplicates, never subtract).
func TestCrashRestartSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped with -short")
	}
	rng := rand.New(rand.NewSource(20260806))
	opts := fastOpts()
	opts.StateDir = t.TempDir()
	opts.Faults = &phishnet.FaultPlan{
		Seed:        20260806,
		Duplicate:   0.05,
		Delay:       300 * time.Microsecond,
		DelayJitter: 300 * time.Microsecond,
	}
	c := New(opts)
	defer c.Close()

	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			c.AddWorkstation(idlesim.Always{})
		} else {
			c.AddWorkstation(idlesim.NewActivity(int64(i), time.Now(),
				30*time.Millisecond, 150*time.Millisecond, // busy
				50*time.Millisecond, 250*time.Millisecond, // idle
				true))
		}
	}

	type want struct {
		job      *Job
		check    func(v types.Value) bool
		name     string
		minTasks int64
	}
	jobs := []want{
		{c.Submit(fib.Program(), fib.Root, fib.RootArgs(26)),
			func(v types.Value) bool { return v.(int64) == fib.Serial(26) }, "fib(26)", fib.TaskCount(26)},
		{c.Submit(pfold.Program(), pfold.Root, pfold.RootArgs(16, 8)),
			func(v types.Value) bool {
				return pfold.Foldings(v.([]int64)) == 6416596 // SAW(15)
			}, "pfold(16)", 0},
		{c.Submit(fib.Program(), fib.Root, fib.RootArgs(25)),
			func(v types.Value) bool { return v.(int64) == fib.Serial(25) }, "fib(25)", fib.TaskCount(25)},
	}

	// The gremlin rotates through worker crashes, clearinghouse
	// crash/restart cycles, and PhishJobQ outages. Restart always follows
	// crash within the same iteration, so every disruption heals.
	stopGremlin := make(chan struct{})
	gremlinDone := make(chan struct{})
	go func() {
		defer close(gremlinDone)
		chCycles, jobqCycles := 0, 0
		for {
			select {
			case <-stopGremlin:
				return
			case <-time.After(time.Duration(40+rng.Intn(120)) * time.Millisecond):
			}
			switch rng.Intn(4) {
			case 0: // crash a random live worker
				j := jobs[rng.Intn(len(jobs))].job
				live := j.LiveWorkers()
				if len(live) > 1 {
					j.Crash(live[rng.Intn(len(live))])
				}
			case 1: // clearinghouse outage
				if chCycles >= 6 {
					continue
				}
				chCycles++
				j := jobs[rng.Intn(len(jobs))].job
				j.CrashClearinghouse()
				time.Sleep(time.Duration(20+rng.Intn(60)) * time.Millisecond)
				if err := j.RestartClearinghouse(); err != nil {
					t.Errorf("clearinghouse restart: %v", err)
					return
				}
			case 2: // PhishJobQ outage
				if jobqCycles >= 2 {
					continue
				}
				jobqCycles++
				c.StopJobQ()
				time.Sleep(time.Duration(30+rng.Intn(80)) * time.Millisecond)
				if err := c.RestartJobQ(); err != nil {
					t.Errorf("jobq restart: %v", err)
					return
				}
			default: // quiet tick
			}
		}
	}()

	for _, w := range jobs {
		v, err := w.job.Wait(180 * time.Second)
		if err != nil {
			close(stopGremlin)
			<-gremlinDone
			t.Fatalf("%s never finished: %v", w.name, err)
		}
		if !w.check(v) {
			t.Errorf("%s: wrong answer %v", w.name, v)
		}
	}
	close(stopGremlin)
	<-gremlinDone

	for _, w := range jobs {
		tot := w.job.Totals()
		if tot.TasksExecuted <= 0 {
			t.Errorf("%s: nonsense totals %+v", w.name, tot)
		}
		if w.minTasks > 0 && tot.TasksExecuted < w.minTasks {
			t.Errorf("%s: executed %d < fault-free %d tasks; work was lost",
				w.name, tot.TasksExecuted, w.minTasks)
		}
	}
}
