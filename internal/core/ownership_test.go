package core

import (
	"slices"
	"testing"
	"time"

	"phish/internal/clock"
	"phish/internal/model"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// doubleProg's "double" changes its argument in place and returns its sum:
// 12 for the [1 2 3] the tests below grant, 24 when it runs on values an
// earlier run of the task already doubled. Each run's sum also goes to sums.
func doubleProg(sums chan<- int64) *Program {
	p := NewProgram("ownership")
	p.Register("double", func(c model.Ctx) {
		h := c.Arg(0).([]int64)
		var sum int64
		for i := range h {
			h[i] *= 2
			sum += h[i]
		}
		sums <- sum
		c.Return(sum)
	})
	p.Register("sink", func(model.Ctx) {})
	return p
}

// stolenDouble is one steal on the fabric: victim a (worker 5) granted thief
// b (worker 6) a "double" of [1 2 3] whose result feeds sink, a waiting
// closure on a; b adopted and confirmed it, and thief is b's copy, not yet
// run.
type stolenDouble struct {
	a, b  *Worker
	rec   *stealRecord
	thief *Closure
	sink  *Closure
	sums  chan int64
}

func stealDouble(t *testing.T, victimClock clock.Clock) *stolenDouble {
	t.Helper()
	fab := phishnet.NewFabric()
	t.Cleanup(fab.Close)
	s := &stolenDouble{sums: make(chan int64, 2)}
	s.a = NewWorker(1, 5, doubleProg(s.sums), fab.Attach(5), DefaultConfig(), victimClock)
	s.b = NewWorker(1, 6, doubleProg(s.sums), fab.Attach(6), DefaultConfig(), clock.System)
	members := view(wire.MemberInfo{Worker: 5, HostedBy: 5}, wire.MemberInfo{Worker: 6, HostedBy: 6})
	s.a.applyView(members)
	s.b.applyView(members)

	s.sink = &Closure{ID: types.TaskID{Worker: 5, Seq: 50}, Fn: "sink", Args: make([]types.Value, 1), Missing: 1}
	s.a.join.Put(s.sink)
	s.a.tasks.created()
	s.a.dq.PushHead(&Closure{ID: types.TaskID{Worker: 5, Seq: 1}, Fn: "double",
		Args: []types.Value{[]int64{1, 2, 3}}, Cont: types.Continuation{Task: s.sink.ID}})

	if err := s.b.sendTo(5, wire.StealRequest{Thief: 6}); err != nil {
		t.Fatal(err)
	}
	s.b.stealPending = true
	s.a.drainAll() // grant
	s.b.drainAll() // adopt, confirm
	s.a.drainAll() // the confirm
	for _, r := range s.a.records {
		s.rec = r
	}
	if len(s.a.records) != 1 || !s.rec.confirmed || s.b.dq.Len() != 1 {
		t.Fatalf("steal not in place: %d records on the victim, %d closures on the thief", len(s.a.records), s.b.dq.Len())
	}
	s.thief, _ = s.b.popNext()
	return s
}

// check asserts that each of runs runs of the body summed [1 2 3] doubled,
// that the one result sink took is that sum, and that the record still holds
// the arguments it granted.
func (s *stolenDouble) check(t *testing.T, runs int) {
	t.Helper()
	for i := 0; i < runs; i++ {
		if sum := <-s.sums; sum != 12 {
			t.Errorf("a run of the task summed %d, want 12: it read arguments another run had changed", sum)
		}
	}
	if got := s.sink.Args[0]; got != int64(12) {
		t.Errorf("result delivered = %v, want 12", got)
	}
	if got := s.rec.task.Args[0].([]int64); !slices.Equal(got, []int64{1, 2, 3}) {
		t.Errorf("steal record's argument = %v, want the [1 2 3] it granted", got)
	}
}

// A thief changes a stolen task's argument in place, then crashes before its
// result reaches the victim. The victim's redo runs from its steal record,
// which still holds what it granted.
func TestRedoAfterThiefCrashReadsGrantedArgs(t *testing.T) {
	s := stealDouble(t, clock.System)
	s.b.execute(s.thief)
	s.a.onWorkerDown(6, nil, wire.TraceCtx{})
	redo, ok := s.a.popNext()
	if !ok {
		t.Fatal("the crashed thief's task was not redone")
	}
	s.a.execute(redo)
	s.check(t, 2)
}

// A speculative redo runs while the thief it doubts runs the same task: two
// copies of one closure, each changing its argument in place, on two
// goroutines. Under the race detector this also fails if the copies share
// the argument's memory.
func TestSpeculativeRedoBesideItsThief(t *testing.T) {
	fake := clock.NewFake()
	s := stealDouble(t, fake)
	s.rec.grantedAt = fake.Now().Add(-time.Minute)
	e := s.a.fns.entry("double")
	for i := 0; i < execWarmup; i++ {
		e.exec.observe(time.Millisecond) // a local p99 to hold the thief to
	}

	thiefDone := make(chan struct{})
	go func() {
		defer close(thiefDone)
		s.b.execute(s.thief)
	}()
	s.a.handle(&wire.Envelope{Job: 1, From: types.ClearinghouseID, To: 5,
		Payload: wire.SuspectSet{Suspects: []wire.SuspectInfo{{Worker: 6}}}})
	redo, ok := s.a.popNext()
	if !ok || s.a.counters.SpeculativeRedos.Load() != 1 {
		t.Fatal("the doubted thief's task was not redone speculatively")
	}
	s.a.execute(redo)
	<-thiefDone
	s.check(t, 2)
}
