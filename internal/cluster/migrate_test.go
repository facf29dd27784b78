package cluster

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"phish/internal/apps/pfold"
	"phish/internal/core"
	"phish/internal/idlesim"
	"phish/internal/model"
	"phish/internal/phishnet"
	"phish/internal/types"
)

// migrateProg is a checkpointable workload for migration tests: "fan"
// spreads k "chunks" tasks of n slow steps each into one sum successor.
// Each chunk checkpoints (i, partial sum) after every step, so a drain or
// crash mid-chunk can resume from the blob instead of redoing the steps.
func migrateProg() *core.Program {
	p := core.NewProgram("migratetest")
	p.Register("chunks", func(c model.Ctx) {
		n := c.Int(0)
		var i, sum int64
		if ck := c.Checkpoint(); len(ck) == 16 {
			i = int64(binary.BigEndian.Uint64(ck))
			sum = int64(binary.BigEndian.Uint64(ck[8:]))
		}
		for ; i < n; i++ {
			sum += i
			time.Sleep(time.Millisecond)
			var blob [16]byte
			binary.BigEndian.PutUint64(blob[:8], uint64(i+1))
			binary.BigEndian.PutUint64(blob[8:], uint64(sum))
			if c.Yield(blob[:]) {
				return
			}
		}
		c.Return(sum)
	})
	p.Register("fan", func(c model.Ctx) {
		k, n := c.Int(0), c.Int(1)
		s := c.Successor("sum", int(k))
		for i := int64(0); i < k; i++ {
			c.Spawn("chunks", s.Cont(int(i)), n)
		}
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

// fanSum is the exact fault-free answer of migrateProg's "fan" root.
func fanSum(k, n int64) int64 { return k * (n * (n - 1) / 2) }

// TestDrainRacesClearinghouseCrash races a planned drain against a
// clearinghouse outage, in both orders. The drainer picks its adopter from
// its own view, so the handoff goes ahead with the clearinghouse dead, and
// its Unregister is what crosses the outage; failing that, the work comes
// back through checkpoint-recovery redo. Both ways, every task must complete
// exactly once — the summed result is exact, neither lost nor doubled.
func TestDrainRacesClearinghouseCrash(t *testing.T) {
	const k, n = 4, 200
	for _, tc := range []struct {
		name       string
		seed       int64
		crashFirst bool
	}{
		{"crash-then-drain", 20260807, true},
		{"drain-then-crash", 20260808, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := recoveryOpts(t, tc.seed)
			opts.Worker.CkptEvery = 10 * time.Millisecond
			c := New(opts)
			defer c.Close()
			for i := 0; i < 3; i++ {
				c.AddWorkstation(idlesim.Always{})
			}
			j := c.Submit(migrateProg(), "fan", []types.Value{int64(k), int64(n)})

			// Let the job spread and checkpoint before pulling the rug.
			deadline := time.Now().Add(15 * time.Second)
			for time.Now().Before(deadline) && !j.Done() {
				if len(j.LiveWorkers()) >= 2 && j.Totals().CkptSaves >= 10 {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			live := j.LiveWorkers()
			if len(live) < 2 {
				t.Fatalf("job never spread: live workers %v", live)
			}
			target := live[len(live)-1]
			if tc.crashFirst {
				j.CrashClearinghouse()
				j.ReclaimWorker(target)
			} else {
				j.ReclaimWorker(target)
				j.CrashClearinghouse()
			}
			time.Sleep(100 * time.Millisecond)
			if err := j.RestartClearinghouse(); err != nil {
				t.Fatal(err)
			}

			v, err := j.Wait(120 * time.Second)
			if err != nil {
				t.Fatalf("job never finished after the drain/crash race: %v", err)
			}
			if got, want := v.(int64), fanSum(k, n); got != want {
				t.Errorf("result = %d, want %d (a task was lost or double-counted)", got, want)
			}
			tot := j.Totals()
			if tot.CkptSaves < 1 {
				t.Errorf("no checkpoints were ever saved: %+v", tot)
			}
			t.Logf("%s: migrated=%d preempted=%d saves=%d resumes=%d",
				tc.name, tot.TasksMigrated, tot.TasksPreempted, tot.CkptSaves, tot.CkptResumes)
		})
	}
}

// TestMigrationChurnSoak hammers checkpointable jobs with seeded
// reclaim/drain churn (plus the occasional outright crash) while a fault
// fabric duplicates and delay-reorders messages. Work must keep flowing
// between workers — migrations actually happen, checkpoints actually save —
// and every job must still produce the exact answer.
func TestMigrationChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped with -short")
	}
	rng := rand.New(rand.NewSource(20260809))
	opts := fastOpts()
	opts.StateDir = t.TempDir()
	opts.Worker.CkptEvery = 10 * time.Millisecond
	opts.Faults = &phishnet.FaultPlan{
		Seed:        20260809,
		Duplicate:   0.05,
		Delay:       300 * time.Microsecond,
		DelayJitter: 300 * time.Microsecond,
	}
	c := New(opts)
	defer c.Close()
	for i := 0; i < 6; i++ {
		c.AddWorkstation(idlesim.Always{})
	}

	const k, n = 8, 150
	jobA := c.Submit(migrateProg(), "fan", []types.Value{int64(k), int64(n)})
	// pfold(16, 8) is the task tree of pfold(13, 5) — eight monomers down to
	// the leaves — with leaves as heavy on the grid kernel as those were on
	// the map walker: the job still lasts long enough to be churned.
	jobB := c.Submit(pfold.Program(), pfold.Root, pfold.RootArgs(16, 8))
	jobs := []*Job{jobA, jobB}

	// The gremlin churns random live workers: mostly owner reclaims (the
	// migration path), sometimes an outright crash (redo path, which should
	// pick up published checkpoints).
	stopGremlin := make(chan struct{})
	gremlinDone := make(chan struct{})
	go func() {
		defer close(gremlinDone)
		for {
			select {
			case <-stopGremlin:
				return
			case <-time.After(time.Duration(40+rng.Intn(120)) * time.Millisecond):
			}
			j := jobs[rng.Intn(len(jobs))]
			live := j.LiveWorkers()
			if len(live) < 2 {
				continue
			}
			id := live[rng.Intn(len(live))]
			if rng.Intn(4) < 3 {
				j.ReclaimWorker(id)
			} else {
				j.Crash(id)
			}
		}
	}()

	vA, errA := jobA.Wait(180 * time.Second)
	vB, errB := jobB.Wait(180 * time.Second)
	close(stopGremlin)
	<-gremlinDone
	if errA != nil {
		t.Fatalf("chunk job never finished under churn: %v", errA)
	}
	if errB != nil {
		t.Fatalf("pfold job never finished under churn: %v", errB)
	}
	if got, want := vA.(int64), fanSum(k, n); got != want {
		t.Errorf("chunk result = %d, want %d", got, want)
	}
	if got := pfold.Foldings(vB.([]int64)); got != 6416596 {
		t.Errorf("pfold foldings = %d, want 6416596", got)
	}

	tot := jobA.Totals()
	if tot.TasksMigrated < 1 {
		t.Errorf("churn never migrated a task: %+v", tot)
	}
	if tot.CkptSaves < 1 {
		t.Errorf("no checkpoints were ever saved: %+v", tot)
	}
	t.Logf("chunk job: migrated=%d preempted=%d saves=%d resumes=%d executed=%d",
		tot.TasksMigrated, tot.TasksPreempted, tot.CkptSaves, tot.CkptResumes, tot.TasksExecuted)
}
