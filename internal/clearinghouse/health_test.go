package clearinghouse

import (
	"testing"
	"time"

	"phish/internal/clock"
	"phish/internal/phishnet"
	"phish/internal/stats"
	"phish/internal/types"
	"phish/internal/wire"
)

// A worker whose executed count stalls while its deque holds work breaks
// its own exec-rate band. On the third break in a row the clearinghouse
// grades it suspect and tells every live member; once it has been suspect
// for SuspectDrainAfter it is ordered to drain; and suspectMisses sweeps
// after its progress resumes the mark clears, and one empty set says so.
func TestExecRateStallGradesSuspectThenDrainsAndClears(t *testing.T) {
	fab := phishnet.NewFabric()
	t.Cleanup(fab.Close)
	fake := clock.NewFake()
	cfg := DefaultConfig()
	cfg.Clock = fake
	cfg.SuspectDrainAfter = 2 * time.Second
	c := New(wire.JobSpec{ID: 1, Name: "test", RootFn: "root"}, fab.Attach(types.ClearinghouseID), cfg)
	const slow, healthy = types.WorkerID(4), types.WorkerID(5)
	ports := map[types.WorkerID]*phishnet.Port{}
	for _, id := range []types.WorkerID{slow, healthy} {
		ports[id] = fab.Attach(id)
		c.store.Register(id, wire.MemberInfo{Worker: id, HostedBy: id}, fake.Now())
	}
	// inbox drains what the clearinghouse has sent id so far.
	inbox := func(id types.WorkerID) (sets []wire.SuspectSet, drains int) {
		for {
			select {
			case env := <-ports[id].Recv():
				switch p := env.Payload.(type) {
				case wire.SuspectSet:
					sets = append(sets, p)
				case wire.DrainOrder:
					drains++
				}
			default:
				return sets, drains
			}
		}
	}
	var executed int64
	// sweep reports slow's progress a second on and runs one grading pass.
	sweep := func(progress int64) {
		fake.Advance(time.Second)
		executed += progress
		c.ingest(&wire.Envelope{Job: 1, From: slow, To: types.ClearinghouseID, Payload: wire.StatReport{
			Worker: slow, Deque: 3, Counters: stats.Snapshot{TasksExecuted: executed}.Ordered()}})
		c.mu.Lock()
		c.sweepHealth(fake.Now())
		c.mu.Unlock()
	}
	suspect := func() (reason string, ok bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if e, ok := c.health.suspects[slow]; ok {
			return e.Reason, true
		}
		return "", false
	}

	// A baseline and four samples at 100 tasks a second warm the band.
	for i := 0; i < 5; i++ {
		sweep(100)
	}
	if sets, _ := inbox(healthy); len(sets) != 0 {
		t.Fatalf("suspect sets sent while every worker kept its rate: %+v", sets)
	}
	sweep(0)
	sweep(0)
	if _, ok := suspect(); ok {
		t.Fatal("graded suspect after two breaks of the band, want three")
	}
	sweep(0)
	if reason, ok := suspect(); !ok || reason != "exec-rate" {
		t.Fatalf("after three breaks: suspect %v with reason %q, want exec-rate", ok, reason)
	}
	for _, id := range []types.WorkerID{slow, healthy} {
		sets, drains := inbox(id)
		if len(sets) != 1 || len(sets[0].Suspects) != 1 || sets[0].Suspects[0].Worker != slow {
			t.Errorf("worker %d got suspect sets %+v, want one naming %d", id, sets, slow)
		}
		if drains != 0 {
			t.Errorf("worker %d ordered to drain at once", id)
		}
	}

	sweep(0)
	if _, drains := inbox(slow); drains != 0 {
		t.Fatal("drain ordered before SuspectDrainAfter")
	}
	sweep(0)
	if _, drains := inbox(slow); drains != 1 {
		t.Fatalf("%d drain orders after SuspectDrainAfter, want 1", drains)
	}
	if _, drains := inbox(healthy); drains != 0 {
		t.Fatal("the healthy worker was ordered to drain")
	}

	for i := 1; i < suspectMisses; i++ {
		sweep(100)
		if _, ok := suspect(); !ok {
			t.Fatalf("cleared after %d clean sweep(s), want %d", i, suspectMisses)
		}
	}
	inbox(healthy)
	sweep(100)
	if _, ok := suspect(); ok {
		t.Fatalf("still suspect after %d clean sweeps", suspectMisses)
	}
	if sets, _ := inbox(healthy); len(sets) != 1 || len(sets[0].Suspects) != 0 {
		t.Fatalf("after the mark cleared the fleet got %+v, want one empty set", sets)
	}
}
