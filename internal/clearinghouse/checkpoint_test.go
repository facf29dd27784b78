package clearinghouse

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"phish/internal/clock"
	"phish/internal/core"
	"phish/internal/model"
	"phish/internal/phishnet"
	"phish/internal/stats"
	"phish/internal/types"
	"phish/internal/wire"
)

// ckptProg is a slowed fib so checkpoints land mid-run: every leaf spins.
func ckptProg() *core.Program {
	p := core.NewProgram("ckpt-fib")
	p.Register("fib", func(c model.Ctx) {
		n := c.Int(0)
		if n < 2 {
			x := uint64(n) | 1
			for i := 0; i < 2000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			if x == 0 {
				c.Return(int64(-1))
				return
			}
			c.Return(n)
			return
		}
		s := c.Successor("sum", 2)
		c.Spawn("fib", s.Cont(0), n-1)
		c.Spawn("fib", s.Cont(1), n-2)
	})
	p.Register("sum", func(c model.Ctx) { c.Return(c.Int(0) + c.Int(1)) })
	return p
}

func ckptFib(n int64) int64 {
	if n < 2 {
		return n
	}
	return ckptFib(n-1) + ckptFib(n-2)
}

// startWorkers wires count workers onto fab against prog.
func startWorkers(t *testing.T, fab *phishnet.Fabric, prog *core.Program, ids []types.WorkerID) ([]*core.Worker, *sync.WaitGroup) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.StealTimeout = 50 * time.Millisecond
	var wg sync.WaitGroup
	workers := make([]*core.Worker, 0, len(ids))
	for _, id := range ids {
		w := core.NewWorker(1, id, prog, fab.Attach(id), cfg, clock.System)
		workers = append(workers, w)
		wg.Add(1)
		go func(w *core.Worker) {
			defer wg.Done()
			_ = w.Run()
		}(w)
	}
	return workers, &wg
}

func TestCheckpointAndRestore(t *testing.T) {
	prog := ckptProg()
	spec := wire.JobSpec{ID: 1, Name: "ckpt-fib", Program: "ckpt-fib",
		RootFn: "fib", RootArgs: []types.Value{int64(22)}}

	// Phase A: start the job, checkpoint it mid-flight, kill everything.
	fabA := phishnet.NewFabric()
	cfgA := DefaultConfig()
	cfgA.UpdateEvery = 20 * time.Millisecond
	chA := New(spec, fabA.Attach(types.ClearinghouseID), cfgA)
	go chA.Run()
	workersA, wgA := startWorkers(t, fabA, prog, []types.WorkerID{1, 2, 3})

	time.Sleep(40 * time.Millisecond) // let it get going
	cp, err := chA.Checkpoint(10 * time.Second)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if chA.Done() {
		t.Skip("job finished before the checkpoint; nothing to restore")
	}
	var executedA int64
	for _, w := range workersA {
		executedA += w.Stats().TasksExecuted
	}
	if executedA == 0 {
		t.Fatal("checkpoint taken before any execution; timing is off")
	}
	// The whole site burns down.
	for _, w := range workersA {
		w.Crash()
	}
	wgA.Wait()
	chA.Stop()
	fabA.Close()

	// Write the checkpoint file and read it back as the journal it is.
	path := filepath.Join(t.TempDir(), "job.ckpt")
	if err := WriteJournal(path, cp); err != nil {
		t.Fatal(err)
	}
	cp2, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp2.Restore) != 3 {
		t.Fatalf("checkpoint has %d states, want 3", len(cp2.Restore))
	}

	// Phase B: restore on a fresh fabric with fresh workers.
	fabB := phishnet.NewFabric()
	cfgB := DefaultConfig()
	cfgB.UpdateEvery = 20 * time.Millisecond
	chB := NewFromRecovery(cp2, fabB.Attach(types.ClearinghouseID), cfgB)
	go chB.Run()
	defer chB.Stop()
	defer fabB.Close()
	workersB, wgB := startWorkers(t, fabB, prog, []types.WorkerID{11, 12, 13})

	v, err := chB.WaitResult(60 * time.Second)
	if err != nil {
		t.Fatalf("restored job never finished: %v", err)
	}
	wgB.Wait()
	if got, want := v.(int64), ckptFib(22); got != want {
		t.Errorf("restored result = %d, want %d", got, want)
	}

	// Proof it RESUMED rather than restarted: the second phase executed
	// fewer tasks than the whole job.
	var snaps []stats.Snapshot
	for _, w := range workersB {
		snaps = append(snaps, w.Stats())
	}
	executedB := stats.JobTotals(snaps).TasksExecuted
	total := fibTaskCount(22)
	if executedB >= total {
		t.Errorf("restored phase executed %d >= %d tasks; it restarted instead of resuming", executedB, total)
	}
	if executedA+executedB < total {
		t.Errorf("phases executed %d+%d < %d tasks; work was lost", executedA, executedB, total)
	}
}

func fibTaskCount(n int64) int64 {
	if n < 2 {
		return 1
	}
	return fibTaskCount(n-1) + fibTaskCount(n-2) + 2
}

func TestCheckpointRefusesWhenDone(t *testing.T) {
	prog := ckptProg()
	spec := wire.JobSpec{ID: 1, Name: "ckpt-fib", Program: "ckpt-fib",
		RootFn: "fib", RootArgs: []types.Value{int64(5)}}
	fab := phishnet.NewFabric()
	defer fab.Close()
	ch := New(spec, fab.Attach(types.ClearinghouseID), DefaultConfig())
	go ch.Run()
	defer ch.Stop()
	_, wg := startWorkers(t, fab, prog, []types.WorkerID{1})
	if _, err := ch.WaitResult(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := ch.Checkpoint(time.Second); err == nil {
		t.Error("checkpointing a finished job should fail")
	}
}

// A checkpoint file is a journal of the job's spec and one state record:
// ReplayJournal gives back the checkpoint, a job that resumes from its
// bundles and starts no root of its own.
func TestCheckpointRoundTripSerialization(t *testing.T) {
	cp := &RecoveredJob{
		Spec:        wire.JobSpec{ID: 9, Name: "x", RootFn: "fib", RootArgs: []types.Value{int64(3)}},
		RootHost:    types.NoWorker,
		RestoreRoot: 4,
		Restore: []wire.SnapshotReply{{
			Worker: 4,
			Closures: []wire.Closure{{
				ID: types.TaskID{Worker: 4, Seq: 2}, Fn: "sum",
				Args: []types.Value{int64(1), nil}, Missing: 1,
				Cont: types.Continuation{Task: types.TaskID{Worker: types.ClearinghouseID, Seq: 1}},
			}},
			Records: []wire.Record{{
				ID: types.TaskID{Worker: 4, Seq: 3}, Thief: 5, Confirmed: true,
			}},
		}},
	}
	path := filepath.Join(t.TempDir(), "job.ckpt")
	if err := WriteJournal(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.ID != 9 || got.ArmRoot || got.RootHost != types.NoWorker || got.RestoreRoot != 4 ||
		len(got.Members) != 0 || len(got.Restore) != 1 || len(got.Restore[0].Closures) != 1 {
		t.Errorf("round trip mangled the checkpoint: %+v", got)
	}
	if got.Restore[0].Closures[0].Args[0].(int64) != 1 || !got.Restore[0].Records[0].Confirmed {
		t.Error("bundle contents lost")
	}
}

// TestCheckpointQuiesceRule drives Checkpoint against two scripted workers
// that answer each Pause with a crafted SnapshotReply, one script entry per
// round. The rule is: a round whose count matrix balances and equals the
// previous round's is the checkpoint, and its state is what is returned.
//
//   - Rounds 1 and 2: worker 1 has sent a steal request that worker 2 has
//     not received. Equal, but unbalanced: no checkpoint.
//   - Round 3: worker 2 has received it. Balanced, but not the same as
//     round 2: no checkpoint.
//   - Round 4: a grant moved from worker 2 to worker 1. Balanced, and not
//     the same as round 3: no checkpoint.
//   - Round 5: the same counts as round 4. Round 5's state is returned,
//     every record confirmed and the counts cleared.
func TestCheckpointQuiesceRule(t *testing.T) {
	type counts = map[types.WorkerID]int64
	script := map[types.WorkerID][]wire.SnapshotReply{
		1: {
			{SentTo: counts{2: 1}, RecvFr: counts{2: 0}},
			{SentTo: counts{2: 1}, RecvFr: counts{2: 0}},
			{SentTo: counts{2: 1}, RecvFr: counts{2: 0}},
			{SentTo: counts{2: 1}, RecvFr: counts{2: 1}},
			{SentTo: counts{2: 1}, RecvFr: counts{2: 1}},
		},
		2: {
			{SentTo: counts{1: 0}, RecvFr: counts{1: 0}},
			{SentTo: counts{1: 0}, RecvFr: counts{1: 0}},
			{SentTo: counts{1: 0}, RecvFr: counts{1: 1}},
			{SentTo: counts{1: 1}, RecvFr: counts{1: 1}},
			{SentTo: counts{1: 1}, RecvFr: counts{1: 1}},
		},
	}
	rounds := len(script[1])
	h := newHarness(t, DefaultConfig())
	var wg sync.WaitGroup
	pauses := map[types.WorkerID]*int{1: new(int), 2: new(int)}
	for id, replies := range script {
		port := h.attach(id)
		expect[wire.RegisterReply](t, port, time.Second)
		n := pauses[id]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for env := range port.Recv() {
				switch p := env.Payload.(type) {
				case wire.Pause:
					rep := replies[min(*n, rounds-1)]
					*n++
					rep.Seq, rep.Worker = p.Seq, id
					// The state names the round it was read in.
					rep.Closures = []wire.Closure{{ID: types.TaskID{Worker: id, Seq: 1},
						Fn: fmt.Sprintf("round%d", *n)}}
					rep.Records = []wire.Record{{ID: types.TaskID{Worker: id, Seq: 2}, Thief: 3 - id}}
					_ = port.Send(&wire.Envelope{Job: 1, From: id, To: types.ClearinghouseID, Payload: rep})
				case wire.Resume:
					return
				}
			}
		}()
	}
	cp, err := h.ch.Checkpoint(5 * time.Second)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	wg.Wait() // both workers resumed
	for id, n := range pauses {
		if *n != rounds {
			t.Errorf("worker %d was paused %d times, want %d", id, *n, rounds)
		}
	}
	if len(cp.Restore) != 2 {
		t.Fatalf("checkpoint has %d bundles, want 2", len(cp.Restore))
	}
	want := fmt.Sprintf("round%d", rounds)
	for _, b := range cp.Restore {
		if len(b.Closures) != 1 || b.Closures[0].Fn != want {
			t.Errorf("worker %d's bundle holds %+v, want the state read in %s", b.Worker, b.Closures, want)
		}
		if len(b.Records) != 1 || !b.Records[0].Confirmed {
			t.Errorf("worker %d's bundle records %+v, want one, confirmed", b.Worker, b.Records)
		}
		if b.SentTo != nil || b.RecvFr != nil {
			t.Errorf("worker %d's bundle keeps its counts %v / %v", b.Worker, b.SentTo, b.RecvFr)
		}
	}
}
