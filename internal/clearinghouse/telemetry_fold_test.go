package clearinghouse

import (
	"testing"
	"time"

	"phish/internal/phishnet"
	"phish/internal/stats"
	"phish/internal/types"
	"phish/internal/wire"
)

// report builds a StatReport whose every counter equals v — cumulative and
// strictly increasing across the sequence, like a real worker's.
func report(id types.WorkerID, v int64) wire.StatReport {
	counters := make([]int64, len(stats.OrderedNames))
	for i := range counters {
		counters[i] = v
	}
	return wire.StatReport{Worker: id, Deque: int32(v), Counters: counters}
}

// TestStatReportReorderCannotRegress replays the failure the monotonic
// guard exists for: the fault fabric duplicates StatReport datagrams and
// delays them with jitter, so a stale duplicate routinely arrives after a
// newer report. Latest-wins folding by arrival order would let the stale
// copy roll the worker's cumulative counters backwards; folding by
// cumulative progress must leave the final row at the newest values no
// matter how deliveries interleave.
func TestStatReportReorderCannotRegress(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	// Heavy duplication and delivery jitter spanning many send intervals:
	// with this seed and 200 reports, reorderings are guaranteed in bulk.
	h.fab.SetFaults(phishnet.NewFaults(phishnet.FaultPlan{
		Seed:        7,
		Duplicate:   0.9,
		Delay:       2 * time.Millisecond,
		DelayJitter: 2 * time.Millisecond,
	}))
	w := h.attach(3)
	expect[wire.RegisterReply](t, w, time.Second)

	const final = 200
	for v := int64(1); v <= final; v++ {
		h.send(w, 3, report(3, v))
	}
	// Let every delayed duplicate land — injected delays top out at 4ms,
	// so after this every straggler has been folded and the row holds its
	// forever value. Folding by arrival order would leave it at whichever
	// stale duplicate the jitter happened to deliver last.
	time.Sleep(300 * time.Millisecond)
	cs := h.ch.ClusterSnapshot()
	var got int64 = -1
	for _, row := range cs.Workers {
		if row.Worker == 3 {
			got = row.Stats.TasksExecuted
		}
	}
	if got != final {
		t.Fatalf("worker row tasks_executed = %d, want %d: a delayed duplicate regressed the cumulative counters", got, final)
	}
}

// TestStatReportFoldsFromUnregisteredWorkers checks the same fold path
// for reports arriving from workers that never registered: pre-Register
// reports must still fold into the rollup.
func TestStatReportFoldsFromUnregisteredWorkers(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	w := h.attach(1)
	expect[wire.RegisterReply](t, w, time.Second)
	for id := types.WorkerID(1); id <= 24; id++ {
		h.send(w, id, report(id, int64(id)*10))
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		cs := h.ch.ClusterSnapshot()
		if len(cs.Workers) == 24 {
			for _, row := range cs.Workers {
				if want := int64(row.Worker) * 10; row.Stats.TasksExecuted != want {
					t.Fatalf("worker %d row = %d, want %d", row.Worker, row.Stats.TasksExecuted, want)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rollup rows = %d, want 24", len(cs.Workers))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
