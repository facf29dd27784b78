package core_test

import (
	"runtime"
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

// flatProg is the benchmark's flat knary tree (internal/apps/knary at depth
// 1), local to these tests: the root spawns fan leaves that each spin for
// about 20 µs and return 1, and their sum is the job's value. Every stolen
// task is one leaf, so what a thief gets done is bound by the steal round
// trip.
func flatProg() *core.Program {
	p := core.NewProgram("flat")
	p.Register("root", func(c model.Ctx) {
		fan := int(c.Int(0))
		s := c.Successor("sum", fan)
		for i := 0; i < fan; i++ {
			c.Spawn("leaf", s.Cont(i))
		}
	})
	p.Register("leaf", func(c model.Ctx) {
		for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
		}
		c.Return(int64(1))
	})
	p.Register("sum", func(c model.Ctx) {
		var sum int64
		for i := 0; i < c.NArgs(); i++ {
			sum += c.Int(i)
		}
		c.Return(sum)
	})
	return p
}

// Two workers with a processor each, talking over UDP on the loopback: the
// thief must get a real share of a flat tree of 20 µs leaves. A steal costs
// it one datagram each way and no timer, and it reads its own socket while
// it waits, so it wins a leaf every few tens of microseconds. With the
// batch flush timer on the path (1.03 ms at best, twice a round trip) it
// won one every 2.3 ms: 13–19 of these 2000 leaves at the parent commit.
func TestThiefOverUDPGetsItsShare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const fan = 2000
	listen := func(id types.WorkerID) *phishnet.UDP {
		u, err := phishnet.ListenUDP(1, id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	chConn := listen(types.ClearinghouseID)
	defer chConn.Close()
	spec := wire.JobSpec{ID: 1, Name: "flat", Program: "flat", RootFn: "root", RootArgs: []types.Value{int64(fan)}}
	ch := clearinghouse.New(spec, chConn, clearinghouse.DefaultConfig())
	go ch.Run()
	defer ch.Stop()

	prog := flatProg()
	var workers []*core.Worker
	done := make(chan struct{})
	for id := types.WorkerID(0); id < 2; id++ {
		conn := listen(id)
		conn.SetPeer(types.ClearinghouseID, chConn.LocalAddr())
		w := core.NewWorker(1, id, prog, conn, core.DefaultConfig(), clock.System)
		conn.Instrument(w.Counters(), nil, nil)
		workers = append(workers, w)
		go func() {
			_ = w.Run()
			done <- struct{}{}
		}()
	}
	v, err := ch.WaitResult(60 * time.Second)
	if err != nil {
		for _, w := range workers {
			w.Crash()
		}
		t.Fatal(err)
	}
	// The transport's counters are read now, with both workers still up: a
	// thief that sent its last request to a victim already leaving
	// retransmits it, rightly, until the shutdown reaches the thief too.
	atResult := stats.JobTotals([]stats.Snapshot{workers[0].Stats(), workers[1].Stats()})
	<-done
	<-done
	if v != types.Value(int64(fan)) {
		t.Errorf("root value = %v, want %d", v, fan)
	}
	tot := stats.JobTotals([]stats.Snapshot{workers[0].Stats(), workers[1].Stats()})
	if tot.TasksExecuted != fan+2 {
		t.Errorf("tasks executed = %d, want %d", tot.TasksExecuted, fan+2)
	}
	if atResult.Retransmits != 0 || tot.PeerGoneReports != 0 {
		t.Errorf("%d retransmit(s) and %d peer-gone report(s) on a quiet loopback", atResult.Retransmits, tot.PeerGoneReports)
	}
	t.Logf("%d of %d leaves stolen", tot.TasksStolen, fan)
	if core.RaceEnabled {
		return // the detector slows the steal path and the leaf's spin loop alike; the share is not the subject
	}
	if tot.TasksStolen < 190 {
		t.Errorf("%d of %d leaves stolen, want at least 190 (ten times what a timer-bound steal managed)", tot.TasksStolen, fan)
	}
}
