package pfold

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"phish/internal/clearinghouse"
	"phish/internal/clock"
	"phish/internal/core"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// runWorkers runs workers with the given ids on fab until the job ends, and
// returns once every one of them has left.
func runWorkers(fab *phishnet.Fabric, ids ...types.WorkerID) (wait func()) {
	cfg := core.DefaultConfig()
	cfg.StealTimeout = 50 * time.Millisecond
	var wg sync.WaitGroup
	for _, id := range ids {
		w := core.NewWorker(1, id, Program(), fab.Attach(id), cfg, clock.System)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run()
		}()
	}
	return wg.Wait
}

// filledMerges counts the snapshot's closures that hold some of their
// arguments but not all.
func filledMerges(cp *clearinghouse.RecoveredJob) (n int) {
	for _, r := range cp.Restore {
		for _, c := range r.Closures {
			if c.Missing > 0 && c.Missing < int32(len(c.Args)) {
				n++
			}
		}
	}
	return n
}

// A checkpoint's snapshot shares nothing with the job it was taken from. A
// pfold job is checkpointed mid-run and runs on to its end: its merges sum
// into histograms the snapshot holds too, and put others back for leaves to
// count into, unless the snapshot copied them. Only then is the snapshot
// written, read back and resumed, and the resumed job's answer is Serial's.
func TestCheckpointOutlivesTheRunningJob(t *testing.T) {
	const n, threshold = 15, 4
	want := Serial(n)
	spec := wire.JobSpec{ID: 1, Name: "pfold", Program: "pfold", RootFn: Root, RootArgs: RootArgs(n, threshold)}
	chCfg := clearinghouse.DefaultConfig()
	chCfg.UpdateEvery = 20 * time.Millisecond

	fabA := phishnet.NewFabric()
	defer fabA.Close()
	chA := clearinghouse.New(spec, fabA.Attach(types.ClearinghouseID), chCfg)
	go chA.Run()
	defer chA.Stop()
	waitA := runWorkers(fabA, 1, 2)
	// pfold(15, 4) on two workers runs ≈ 50 ms here. Checkpoint until a
	// snapshot holds a merge with a histogram in it: before the workers
	// register there is nothing to checkpoint, and right after the root
	// starts no merge has a result yet.
	var cp *clearinghouse.RecoveredJob
	for cp == nil {
		time.Sleep(5 * time.Millisecond)
		c, err := chA.Checkpoint(10 * time.Second)
		if chA.Done() {
			t.Fatal("the job finished before a checkpoint held a merge with a histogram in it")
		}
		if err == nil && filledMerges(c) > 0 {
			cp = c
		}
	}
	v, err := chA.WaitResult(60 * time.Second)
	if err != nil {
		t.Fatalf("the job never finished after its checkpoint: %v", err)
	}
	waitA()
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("the checkpointed job's result %v, want %v", v, want)
	}

	path := filepath.Join(t.TempDir(), "pfold.ckpt")
	if err := clearinghouse.WriteJournal(path, cp); err != nil {
		t.Fatal(err)
	}
	rec, err := clearinghouse.ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	fabB := phishnet.NewFabric()
	defer fabB.Close()
	chB := clearinghouse.NewFromRecovery(rec, fabB.Attach(types.ClearinghouseID), chCfg)
	go chB.Run()
	defer chB.Stop()
	waitB := runWorkers(fabB, 11, 12)
	v, err = chB.WaitResult(60 * time.Second)
	if err != nil {
		t.Fatalf("the resumed job never finished: %v", err)
	}
	waitB()
	if !reflect.DeepEqual(v, want) {
		t.Errorf("the resumed job's result %v, want %v (the snapshot changed after it was taken)", v, want)
	}
}
