package cluster

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"phish/internal/apps/fib"
	"phish/internal/clearinghouse"
	"phish/internal/clock"
	"phish/internal/core"
	"phish/internal/idlesim"
	"phish/internal/jobmanager"
	"phish/internal/model"
)

// paperOpts runs the macro level on fake with the paper's literal
// constants — check every 5 minutes while users are logged in, hold (or
// retry) the job request 30 seconds when the pool is empty, watch for the
// owner every 2 seconds while working, push clearinghouse updates every 2
// minutes. Only the macro level runs on the fake clock; the workers do
// real work in real time.
func paperOpts(fake *clock.Fake) Options {
	w := core.DefaultConfig()
	w.MaxStealFailures = 10
	w.StealTimeout = 20 * time.Millisecond
	return Options{
		Clock:  fake,
		Worker: w,
		CH: clearinghouse.Config{
			UpdateEvery: 2 * time.Minute, // the paper's update period
			Clock:       fake,
		},
		JM: jobmanager.Config{
			BusyPoll:  5 * time.Minute,  // the paper's login re-check
			IdleRetry: 30 * time.Second, // the paper's empty-pool retry
			WorkPoll:  2 * time.Second,  // the paper's owner watch
			Clock:     fake,
		},
	}
}

// stampProgram's root task reports the wall time it first ran on started.
func stampProgram(started chan<- time.Time) *core.Program {
	var once sync.Once
	p := core.NewProgram("stamp")
	p.Register("root", func(c model.Ctx) {
		once.Do(func() { started <- time.Now() })
		c.Return(int64(1))
	})
	return p
}

// firstTaskWithin submits a stamp job and fails unless its root task runs
// within limit of wall time, the fake clock standing still.
func firstTaskWithin(t *testing.T, c *Cluster, limit time.Duration) *Job {
	t.Helper()
	started := make(chan time.Time, 1)
	t0 := time.Now()
	j := c.Submit(stampProgram(started), "root", nil)
	select {
	case at := <-started:
		if d := at.Sub(t0); d > limit {
			t.Errorf("job %d: first task %v after Submit, want < %v", j.ID, d, limit)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("job %d: no task ran while the clock stood still", j.ID)
	}
	if _, err := j.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return j
}

// TestPaperIntervalsVirtualTime drives the macro-level scheduler with the
// paper's intervals, compressed to wall-seconds by a virtual clock. The
// paper's workstation would not see a job until its 30-second retry; a
// held request binds it at Submit, and the 30 seconds remain the most an
// empty pool is asked.
func TestPaperIntervalsVirtualTime(t *testing.T) {
	fake := clock.NewFake()
	c := New(paperOpts(fake))
	defer c.Close()

	// One always-idle workstation, its request held on the empty pool.
	ws := c.AddWorkstation(idlesim.Always{})
	if !fake.BlockUntilWaiters(1, 5*time.Second) {
		t.Fatal("manager never armed its first hold")
	}

	// Submit a job: it runs its first task at once, and completes in real
	// time while the virtual clock stands still (the micro level is
	// clock-free).
	firstTaskWithin(t, c, 50*time.Millisecond)
	j := c.Submit(fib.Program(), fib.Root, fib.RootArgs(22))
	v, err := j.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.(int64), fib.Serial(22); got != want {
		t.Errorf("fib(22) = %d, want %d", got, want)
	}
	if n := ws.Stats().JobsStarted.Load(); n != 2 {
		t.Errorf("jobs started = %d, want 2", n)
	}

	// After completion the manager goes back to holding its request on the
	// (again empty) pool: one empty reply every 30 virtual seconds, and
	// none sooner. Advance until the first empty reply, so that the next
	// hold is armed at a known virtual time: the manager re-asks at once.
	emptyAfter := func(d time.Duration) bool {
		base := ws.Stats().EmptyPolls.Load()
		fake.Advance(d)
		for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if ws.Stats().EmptyPolls.Load() != base {
				return true
			}
		}
		return false
	}
	for i := 0; !emptyAfter(30 * time.Second); i++ {
		if i == 100 {
			t.Fatal("manager did not return to its hold after the job")
		}
	}
	time.Sleep(5 * time.Millisecond)
	if emptyAfter(30*time.Second - time.Millisecond) {
		t.Fatal("an empty reply before the 30 s hold ran out")
	}
	if !emptyAfter(time.Millisecond) {
		t.Error("no empty reply at the 30 s mark")
	}
}

// A job is bound the moment it is submitted, whenever that is: here by a
// client independent of the managers, at a random virtual time that may
// fall in the middle of a hold or just after one ran out.
func TestHeldRequestBindsAtSubmit(t *testing.T) {
	fake := clock.NewFake()
	c := New(paperOpts(fake))
	for i := 0; i < 2; i++ {
		c.AddWorkstation(idlesim.Always{})
	}
	if !fake.BlockUntilWaiters(2, 5*time.Second) {
		t.Fatal("managers never armed their holds")
	}
	firstTaskWithin(t, c, 50*time.Millisecond)
	rng := rand.New(rand.NewSource(28))
	fake.Advance(time.Duration(rng.Int63n(int64(90 * time.Second))))
	firstTaskWithin(t, c, 50*time.Millisecond)

	// Closing the cluster ends the held requests at once.
	t0 := time.Now()
	c.Close()
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Errorf("Close took %v with requests held", d)
	}
}

// A PhishJobQ outage ends a held request with the error an unreachable
// JobQ gives a poll; after the restart the next job is picked up.
func TestStopJobQDuringHold(t *testing.T) {
	fake := clock.NewFake()
	c := New(paperOpts(fake))
	defer c.Close()
	ws := c.AddWorkstation(idlesim.Always{})
	if !fake.BlockUntilWaiters(1, 5*time.Second) {
		t.Fatal("manager never armed its first hold")
	}
	c.StopJobQ()
	deadline := time.Now().Add(5 * time.Second)
	for ws.Stats().SourceErrors.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := ws.Stats().SourceErrors.Load(); n != 1 {
		t.Fatalf("source errors = %d, want 1", n)
	}
	// The error's IdleRetry sleep, beside the abandoned hold's timer.
	if !fake.BlockUntilWaiters(2, 5*time.Second) {
		t.Fatal("manager never armed its retry")
	}
	if err := c.RestartJobQ(); err != nil {
		t.Fatal(err)
	}
	j := c.Submit(fib.Program(), fib.Root, fib.RootArgs(15))
	// The manager polls again after its IdleRetry, as against a dead JobQ
	// it always has.
	fake.Advance(30 * time.Second)
	if _, err := j.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := ws.Stats().SourceErrors.Load(); n != 1 {
		t.Errorf("source errors = %d after the restart, want 1", n)
	}
}
