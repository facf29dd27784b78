package phish_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"phish/internal/apps/pfold"
	"phish/internal/clearinghouse"
	"phish/internal/clock"
	"phish/internal/core"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// TestCheckpointRestoreOverUDP checkpoints a pfold run over real UDP
// sockets, kills everything, and resumes on fresh endpoints — the binary
// -checkpoint/-restore path, in-process so it can be dissected.
func TestCheckpointRestoreOverUDP(t *testing.T) {
	const jobID types.JobID = 3
	spec := wire.JobSpec{ID: jobID, Name: "pfold", Program: "pfold",
		RootFn: pfold.Root, RootArgs: pfold.RootArgs(18, 7)}
	want := pfold.Serial(18)

	chConn, err := phishnet.ListenUDP(jobID, types.ClearinghouseID, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chCfg := clearinghouse.DefaultConfig()
	chCfg.UpdateEvery = 100 * time.Millisecond
	ch := clearinghouse.New(spec, chConn, chCfg)
	go ch.Run()

	cfg := core.DefaultConfig()
	cfg.StealTimeout = 200 * time.Millisecond
	cfg.StealBackoff = time.Millisecond

	var wg sync.WaitGroup
	workers := make([]*core.Worker, 2)
	for i := range workers {
		conn, err := phishnet.ListenUDP(jobID, types.WorkerID(i), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn.SetPeer(types.ClearinghouseID, chConn.LocalAddr())
		workers[i] = core.NewWorker(jobID, types.WorkerID(i), pfold.Program(), conn, cfg, clock.System)
		wg.Add(1)
		go func(w *core.Worker) { defer wg.Done(); _ = w.Run() }(workers[i])
	}

	// Mimic the binary's periodic loop: checkpoint, resume, keep
	// computing, checkpoint again; kill after the second one.
	time.Sleep(60 * time.Millisecond) // let it get going
	if _, err := ch.Checkpoint(30 * time.Second); err != nil {
		t.Fatalf("checkpoint 1: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	cp, err := ch.Checkpoint(30 * time.Second)
	if err != nil {
		t.Fatalf("checkpoint 2: %v", err)
	}
	time.Sleep(30 * time.Millisecond) // job progresses past the snapshot
	if ch.Done() {
		t.Skip("job finished before checkpoint")
	}
	var execA int64
	for _, w := range workers {
		execA += w.Stats().TasksExecuted
	}
	for _, w := range workers {
		w.Crash()
	}
	wg.Wait()
	ch.Stop()
	chConn.Close()

	// Through the file on disk, as -checkpoint writes it and -restore reads it.
	path := filepath.Join(t.TempDir(), "job.ckpt")
	if err := clearinghouse.WriteJournal(path, cp); err != nil {
		t.Fatal(err)
	}
	if cp, err = clearinghouse.ReplayJournal(path); err != nil {
		t.Fatal(err)
	}

	// Resume on fresh UDP endpoints with fresh ids.
	chConn2, err := phishnet.ListenUDP(jobID, types.ClearinghouseID, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch2 := clearinghouse.NewFromRecovery(cp, chConn2, chCfg)
	go ch2.Run()
	defer ch2.Stop()
	workers2 := make([]*core.Worker, 2)
	var wg2 sync.WaitGroup
	for i := range workers2 {
		conn, err := phishnet.ListenUDP(jobID, types.WorkerID(100+i), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn.SetPeer(types.ClearinghouseID, chConn2.LocalAddr())
		workers2[i] = core.NewWorker(jobID, types.WorkerID(100+i), pfold.Program(), conn, cfg, clock.System)
		wg2.Add(1)
		go func(w *core.Worker) { defer wg2.Done(); _ = w.Run() }(workers2[i])
	}
	v, err := ch2.WaitResult(60 * time.Second)
	if err != nil {
		for _, w := range workers2 {
			w.Crash()
		}
		wg2.Wait()
		fmt.Println(ch2.DebugMembers())
		for _, w := range workers2 {
			fmt.Println(w.DebugDump())
		}
		t.Fatalf("restored job hung: %v", err)
	}
	wg2.Wait()
	got := v.([]int64)
	if !reflect.DeepEqual(got, want) {
		var gotN, wantN int64
		for _, x := range got {
			gotN += x
		}
		for _, x := range want {
			wantN += x
		}
		var execB, orphB, redoB int64
		for _, w := range workers2 {
			s := w.Stats()
			execB += s.TasksExecuted
			orphB += s.Orphans
			redoB += s.TasksRedone
		}
		t.Fatalf("restored histogram wrong: got %d foldings want %d (execA=%d execB=%d orphans=%d redone=%d)",
			gotN, wantN, execA, execB, orphB, redoB)
	}
}

// TestFineGrainYieldsOverUDPStayLive runs pfold on one worker over real UDP
// sockets, where nobody but the worker reads the worker's socket and a
// pfold leaf yields every microsecond or so. Yield looks at the socket only
// as often as the loop's housekeeping pass would for tasks of that grain —
// not at every call, which would make each a system call — and a thief's
// request must still be answered well within the 50 ms that
// core's TestYieldingWorkerOverUDPStaysLive allows a single long body.
func TestFineGrainYieldsOverUDPStayLive(t *testing.T) {
	const jobID types.JobID = 4
	const bound = 50 * time.Millisecond
	spec := wire.JobSpec{ID: jobID, Name: "pfold", Program: "pfold",
		RootFn: pfold.Root, RootArgs: pfold.RootArgs(20, 6)}
	listen := func(id types.WorkerID) *phishnet.UDP {
		u, err := phishnet.ListenUDP(jobID, id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { u.Close() })
		return u
	}
	chConn := listen(types.ClearinghouseID)
	ch := clearinghouse.New(spec, chConn, clearinghouse.DefaultConfig())
	go ch.Run()
	defer ch.Stop()

	conn, thief := listen(0), listen(1)
	conn.SetPeer(types.ClearinghouseID, chConn.LocalAddr())
	conn.SetPeer(1, thief.LocalAddr())
	thief.SetPeer(0, conn.LocalAddr())
	w := core.NewWorker(jobID, 0, pfold.Program(), conn, core.DefaultConfig(), clock.System)
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run() }()
	defer func() { w.Crash(); <-done }()

	for deadline := time.Now().Add(10 * time.Second); w.Stats().CkptSaves < 1000; {
		if time.Now().After(deadline) {
			t.Fatal("the job never got going")
		}
		time.Sleep(time.Millisecond)
	}
	// Each grant takes the oldest task in the deque, a large subtree: a few
	// requests leave the worker plenty to do, and it must be busy for the
	// answer to mean anything.
	for i := 0; i < 4; i++ {
		saves := w.Stats().CkptSaves
		t0 := time.Now()
		if err := thief.Send(&wire.Envelope{Job: jobID, From: 1, To: 0, Payload: wire.StealRequest{Thief: 1}}); err != nil {
			t.Fatal(err)
		}
		select {
		case env := <-thief.Recv():
			if env.Materialize() != nil {
				t.Fatal("undecodable answer")
			}
			if _, ok := env.Payload.(wire.StealReply); !ok {
				t.Fatalf("thief received %s, want a steal reply", env.PayloadName())
			}
			if d := time.Since(t0); d > bound {
				t.Errorf("steal request %d answered after %v, want within %v", i, d, bound)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("steal request %d never answered", i)
		}
		time.Sleep(5 * time.Millisecond)
		if w.Stats().CkptSaves == saves {
			t.Fatalf("the worker was not running leaves around request %d: the answer shows nothing", i)
		}
	}
}
