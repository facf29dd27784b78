package core_test

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"phish/internal/clearinghouse"
	"phish/internal/clock"
	"phish/internal/core"
	"phish/internal/model"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// chunkSteps counts every 1 ms unit of chunk work executed anywhere, so
// tests can tell "resumed from the blob" from "redone from scratch".
var chunkSteps atomic.Int64

// chunkProg sums 0..n-1 in n slow steps, checkpointing (i, partial sum)
// after each. The root fans two chunk children into a sum successor so one
// child is stealable.
func chunkProg() *core.Program {
	p := core.NewProgram("ckpttest")
	p.Register("chunks", func(c model.Ctx) {
		n := c.Int(0)
		var i, sum int64
		if ck := c.Checkpoint(); len(ck) == 16 {
			i = int64(binary.BigEndian.Uint64(ck))
			sum = int64(binary.BigEndian.Uint64(ck[8:]))
		}
		for ; i < n; i++ {
			sum += i
			chunkSteps.Add(1)
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
	p.Register("pair", func(c model.Ctx) {
		n := c.Int(0)
		s := c.Successor("sum2", 2)
		c.Spawn("chunks", s.Cont(0), n)
		c.Spawn("chunks", s.Cont(1), n)
	})
	p.Register("sum2", func(c model.Ctx) { c.Return(c.Int(0) + c.Int(1)) })
	return p
}

func chunkSum(n int64) int64 { return n * (n - 1) / 2 }

// ckptRig wires a fabric + clearinghouse around chunkProg with heartbeat
// crash detection fast enough for unit tests.
type ckptRig struct {
	t    *testing.T
	fab  *phishnet.Fabric
	ch   *clearinghouse.Clearinghouse
	prog *core.Program
	cfg  core.Config

	workers map[types.WorkerID]*core.Worker
	done    map[types.WorkerID]chan struct{}
}

func newCkptRig(t *testing.T, rootFn string, rootN int64) *ckptRig {
	t.Helper()
	fab := phishnet.NewFabric()
	spec := wire.JobSpec{ID: 1, Name: "ckpttest", Program: "ckpttest",
		RootFn: rootFn, RootArgs: []types.Value{rootN}}
	chCfg := clearinghouse.DefaultConfig()
	chCfg.UpdateEvery = 20 * time.Millisecond
	chCfg.HeartbeatTimeout = 250 * time.Millisecond
	ch := clearinghouse.New(spec, fab.Attach(types.ClearinghouseID), chCfg)
	go ch.Run()
	cfg := core.DefaultConfig()
	cfg.StealTimeout = 50 * time.Millisecond
	cfg.HeartbeatEvery = 10 * time.Millisecond
	cfg.CkptEvery = 10 * time.Millisecond
	r := &ckptRig{t: t, fab: fab, ch: ch, prog: chunkProg(), cfg: cfg,
		workers: make(map[types.WorkerID]*core.Worker),
		done:    make(map[types.WorkerID]chan struct{})}
	t.Cleanup(func() {
		for _, w := range r.workers {
			w.Crash()
		}
		for _, d := range r.done {
			<-d
		}
		ch.Stop()
		fab.Close()
	})
	return r
}

func (r *ckptRig) addWorker(id types.WorkerID) *core.Worker {
	r.t.Helper()
	w := core.NewWorker(1, id, r.prog, r.fab.Attach(id), r.cfg, clock.System)
	d := make(chan struct{})
	r.workers[id] = w
	r.done[id] = d
	go func() {
		defer close(d)
		_ = w.Run()
	}()
	return w
}

func (r *ckptRig) wait(d time.Duration) int64 {
	r.t.Helper()
	v, err := r.ch.WaitResult(d)
	if err != nil {
		r.t.Fatal(err)
	}
	return v.(int64)
}

// TestDrainHandsOffCheckpointedTask drains the worker executing a long
// checkpointable task: the task must be preempted at a Yield, migrate with
// its blob, and resume on the other worker — not restart from step zero.
func TestDrainHandsOffCheckpointedTask(t *testing.T) {
	const n = 300
	chunkSteps.Store(0)
	r := newCkptRig(t, "chunks", n)
	w1 := r.addWorker(1)

	// Let the task make some progress on w1 before the adopter joins.
	deadline := time.Now().Add(5 * time.Second)
	for w1.Stats().CkptSaves < 20 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if w1.Stats().CkptSaves < 20 {
		t.Fatalf("task made no checkpointed progress on w1: %+v", w1.Stats())
	}
	r.addWorker(2)
	for len(r.ch.LiveWorkers()) < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	t0 := time.Now()
	w1.Reclaim()
	<-r.done[1]
	handoff := time.Since(t0)

	if got := r.wait(30 * time.Second); got != chunkSum(n) {
		t.Fatalf("result = %d, want %d", got, chunkSum(n))
	}
	s1 := w1.Stats()
	if s1.TasksPreempted < 1 {
		t.Errorf("w1 never preempted the in-flight task: %+v", s1)
	}
	if s1.TasksMigrated < 1 {
		t.Errorf("w1 migrated nothing: %+v", s1)
	}
	if w1.LeaveReason() != wire.LeaveReclaimed {
		t.Errorf("w1 leave reason = %v, want reclaimed (clean handoff)", w1.LeaveReason())
	}
	s2 := r.workers[2].Stats()
	if s2.CkptResumes < 1 {
		t.Errorf("w2 never resumed from a checkpoint: %+v", s2)
	}
	// Resumption, not redo: total steps stay well under twice the work.
	if steps := chunkSteps.Load(); steps > n+n/2 {
		t.Errorf("%d steps executed for %d units of work; blob was not resumed", steps, n)
	}
	// The drain itself is quick — bounded by one Yield interval plus the
	// handoff round trips, far under the redo cost of the full task.
	if handoff > 5*time.Second {
		t.Errorf("drain handoff took %v", handoff)
	}
}

// TestDrainCarriesNewestCkpt drains a worker whose publication table is
// far behind its task: the first blob went out at once and, with CkptEvery
// at an hour, none since. What migrates is the closure's own checkpoint —
// the last Yield's blob and sequence number — so the adopter resumes
// exactly where the drain cut in: one resume, no step run twice.
func TestDrainCarriesNewestCkpt(t *testing.T) {
	const n = 300
	chunkSteps.Store(0)
	r := newCkptRig(t, "chunks", n)
	r.cfg.CkptEvery = time.Hour
	w1 := r.addWorker(1)

	deadline := time.Now().Add(5 * time.Second)
	for w1.Stats().CkptSaves < 20 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if w1.Stats().CkptSaves < 20 {
		t.Fatalf("task made no checkpointed progress on w1: %+v", w1.Stats())
	}
	if pub := w1.CkptTable(); len(pub) != 1 || pub[0].Seq != 1 {
		t.Fatalf("w1 published %+v after %d saves, want only the first blob", pub, w1.Stats().CkptSaves)
	}
	w2 := r.addWorker(2)
	for len(r.ch.LiveWorkers()) < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	w1.Reclaim()
	<-r.done[1]
	saved := uint64(w1.Stats().CkptSaves) // one save per step, the last at the Yield that vacated
	if pub := w1.CkptTable(); len(pub) != 0 {
		t.Errorf("w1 still advertises %+v after the task left", pub)
	}

	// The adopter's first Yield publishes: one step past what migrated.
	var pub []wire.TaskCkpt
	for len(pub) == 0 && time.Now().Before(deadline) {
		pub = w2.CkptTable()
		time.Sleep(time.Millisecond)
	}
	if len(pub) != 1 || pub[0].Seq != saved+1 || len(pub[0].Data) != 16 ||
		binary.BigEndian.Uint64(pub[0].Data) != saved+1 {
		t.Errorf("w2 published %+v, want seq %d with step %d in the blob: the closure migrated without its newest checkpoint",
			pub, saved+1, saved+1)
	}
	if got := r.wait(30 * time.Second); got != chunkSum(n) {
		t.Fatalf("result = %d, want %d", got, chunkSum(n))
	}
	if s2 := w2.Stats(); s2.CkptResumes != 1 {
		t.Errorf("w2 resumed from a checkpoint %d times, want 1: %+v", s2.CkptResumes, s2)
	}
	if steps := chunkSteps.Load(); steps != n {
		t.Errorf("%d steps executed for %d units of work: the resume redid some", steps, n)
	}
	if got := w1.Stats().CkptSaves + w2.Stats().CkptSaves; got != n {
		t.Errorf("%d checkpoints saved over %d steps", got, n)
	}
}

// TestCrashRedoResumesFromPublishedBlob crashes a thief mid-task: the
// victim's redo must pick up the thief's last published checkpoint (which
// rode StatReports to the clearinghouse and came back on WorkerDown)
// instead of redoing from scratch.
func TestCrashRedoResumesFromPublishedBlob(t *testing.T) {
	const n = 300
	chunkSteps.Store(0)
	r := newCkptRig(t, "pair", n)
	w1 := r.addWorker(1)

	// The root must land on w1: let it fan out before w2 joins.
	deadline := time.Now().Add(5 * time.Second)
	for w1.Stats().TasksExecuted < 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	w2 := r.addWorker(2)

	// Wait until w2 stole the second chunk task and checkpointed progress.
	for time.Now().Before(deadline) {
		s := w2.Stats()
		if s.TasksStolen >= 1 && s.CkptSaves >= 20 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s := w2.Stats(); s.TasksStolen < 1 || s.CkptSaves < 20 {
		t.Fatalf("w2 never stole and checkpointed a chunk task:\n  w2: %+v\n  w1: %+v", s, w1.Stats())
	}
	// Give the rate-limited publication a beat, then kill the thief.
	time.Sleep(30 * time.Millisecond)
	w2.Crash()

	if got := r.wait(30 * time.Second); got != 2*chunkSum(n) {
		t.Fatalf("result = %d, want %d", got, 2*chunkSum(n))
	}
	if s1 := w1.Stats(); s1.CkptResumes < 1 {
		t.Errorf("w1 redid the stolen task without its checkpoint: %+v", s1)
	}
}

// TestNoCkptKeepsLegacyBehavior runs the same checkpointable program with
// the checkpoint surface disabled: Yield must save nothing and never
// preempt, and the job must still complete exactly.
func TestNoCkptKeepsLegacyBehavior(t *testing.T) {
	const n = 50
	chunkSteps.Store(0)
	r := newCkptRig(t, "chunks", n)
	r.cfg.NoCkpt = true
	w1 := r.addWorker(1)
	if got := r.wait(30 * time.Second); got != chunkSum(n) {
		t.Fatalf("result = %d, want %d", got, chunkSum(n))
	}
	s := w1.Stats()
	if s.CkptSaves != 0 || s.TasksPreempted != 0 || s.CkptResumes != 0 {
		t.Errorf("NoCkpt worker touched the checkpoint surface: %+v", s)
	}
}
