package core

import (
	"cmp"
	"slices"
	"testing"

	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// joinRig is worker 5 holding three waiting closures of two slots each,
// whose results go to worker 6: two that worker 5 minted with Seqs that
// collide in the join table's array (the first takes the slot, the second
// goes to the map), and one minted by worker 9 that arrived in a migration.
func joinRig(t *testing.T) (*Worker, *phishnet.Fabric, []*Closure) {
	t.Helper()
	w, fab := newTestWorker(t, 5)
	w.applyView(view(
		wire.MemberInfo{Worker: 5, HostedBy: 5},
		wire.MemberInfo{Worker: 6, HostedBy: 6},
		wire.MemberInfo{Worker: 9, HostedBy: 5}, // migrated into 5
	))
	cont := types.Continuation{Task: types.TaskID{Worker: 6, Seq: 1}}
	waiting := func(id types.TaskID) *Closure {
		return &Closure{ID: id, Fn: "noop", Args: make([]types.Value, 2), Missing: 2, Cont: cont}
	}
	own := []*Closure{waiting(types.TaskID{Worker: 5, Seq: 7}), waiting(types.TaskID{Worker: 5, Seq: 7 + joinSlots})}
	for _, cl := range own {
		w.join.Put(cl)
		w.tasks.created()
	}
	w.adoptMigration(9, wire.Migrate{From: 9, Closures: []wire.Closure{waiting(types.TaskID{Worker: 9, Seq: 7}).toWire()}})
	foreign := w.join.Get(types.TaskID{Worker: 9, Seq: 7})
	if foreign == nil {
		t.Fatal("a migrated-in waiting closure is not in the join table")
	}
	if w.join.used != 1 || len(w.join.more) != 2 {
		t.Fatalf("join table: %d in the array, %d in the map; want 1 (the first own closure) and 2", w.join.used, len(w.join.more))
	}
	return w, fab, append(own, foreign)
}

// sortedIDs lists n task ids, id(0) to id(n-1), in order.
func sortedIDs(n int, id func(i int) types.TaskID) []types.TaskID {
	out := make([]types.TaskID, n)
	for i := range out {
		out[i] = id(i)
	}
	slices.SortFunc(out, func(a, b types.TaskID) int {
		return cmp.Or(cmp.Compare(a.Worker, b.Worker), cmp.Compare(a.Seq, b.Seq))
	})
	return out
}

// Every result lands in the closure its continuation names — in the array,
// behind a collision in the map, or minted elsewhere — and each closure is
// readied exactly once, when its last slot fills.
func TestJoinTableRoutesEveryResult(t *testing.T) {
	w, _, cls := joinRig(t)
	for slot := int32(0); slot < 2; slot++ {
		for i := len(cls) - 1; i >= 0; i-- { // the map's closures first
			w.deliver(types.Continuation{Task: cls[i].ID, Slot: slot}, int64(10*i)+int64(slot), false, wire.TraceCtx{})
		}
	}
	for i, cl := range cls {
		if cl.Missing != 0 || cl.Args[0] != int64(10*i) || cl.Args[1] != int64(10*i+1) {
			t.Errorf("closure %v: missing %d, args %v; want 0, [%d %d]", cl.ID, cl.Missing, cl.Args, 10*i, 10*i+1)
		}
	}
	if w.join.len() != 0 || w.dq.Len() != len(cls) {
		t.Errorf("after every join: %d waiting, %d ready; want 0, %d", w.join.len(), w.dq.Len(), len(cls))
	}
	if w.orphanDrops.Load() != 0 || len(w.unsent) != 0 {
		t.Errorf("%d results dropped, %d parked; want none", w.orphanDrops.Load(), len(w.unsent))
	}
	w.foldCounters()
	if got := w.counters.Synchronizations.Load(); got != 2*int64(len(cls)) {
		t.Errorf("synchronizations = %d, want %d", got, 2*len(cls))
	}
}

// A second result for a filled slot is dropped, and a result for a closure
// that has left the table misses, even when another closure now sits in its
// array slot: the lookup compares the whole task id, not the slot.
func TestJoinTableDropsDuplicateAndStaleResults(t *testing.T) {
	w, _, cls := joinRig(t)
	first := cls[0]
	w.deliver(types.Continuation{Task: first.ID, Slot: 0}, int64(1), false, wire.TraceCtx{})
	w.deliver(types.Continuation{Task: first.ID, Slot: 0}, int64(2), false, wire.TraceCtx{})
	if first.Missing != 1 || first.Args[0] != int64(1) || w.orphanDrops.Load() != 1 {
		t.Fatalf("duplicate delivery: missing %d, slot %v, drops %d; want 1, 1, 1", first.Missing, first.Args[0], w.orphanDrops.Load())
	}
	w.deliver(types.Continuation{Task: first.ID, Slot: 1}, int64(3), false, wire.TraceCtx{})
	if w.join.Get(first.ID) != nil {
		t.Fatal("a ready closure is still in the join table")
	}

	// A successor minted later takes the freed slot; a straggler for the
	// closure that left must not fill it.
	next := &Closure{ID: types.TaskID{Worker: 5, Seq: first.ID.Seq + 2*joinSlots}, Fn: "noop",
		Args: make([]types.Value, 2), Missing: 2}
	w.join.Put(next)
	if w.join.slots[next.ID.Seq%joinSlots] != next {
		t.Fatal("the freed slot was not reused")
	}
	w.deliver(types.Continuation{Task: first.ID, Slot: 0}, int64(4), false, wire.TraceCtx{})
	if next.Missing != 2 || next.Args[0] != nil {
		t.Errorf("a result for %v filled %v, which sits in its old slot", first.ID, next.ID)
	}
}

// The cold paths that walk the whole table see every waiting closure,
// whether it sits in the array or in the map.
func TestJoinTableColdPathsSeeEveryClosure(t *testing.T) {
	t.Run("snapshot", func(t *testing.T) {
		w, _, cls := joinRig(t)
		want := sortedIDs(len(cls), func(i int) types.TaskID { return cls[i].ID })
		rep := w.snapshotReply(1)
		if got := sortedIDs(len(rep.Closures), func(i int) types.TaskID { return rep.Closures[i].ID }); !slices.Equal(got, want) {
			t.Errorf("snapshot carries %v, want %v", got, want)
		}
		if w.join.len() != len(cls) {
			t.Errorf("the snapshot disturbed the table: %d waiting", w.join.len())
		}
	})
	t.Run("purge", func(t *testing.T) {
		w, _, cls := joinRig(t)
		w.dead[6] = true // every closure's consumer
		w.purgeOrphans()
		if w.join.len() != 0 {
			t.Errorf("%d of %d orphaned closures survived the purge", w.join.len(), len(cls))
		}
		if w.tasks.inUse != 0 {
			t.Errorf("tasks in use after the purge = %d, want 0", w.tasks.inUse)
		}
	})
	t.Run("migrate", func(t *testing.T) {
		w, fab, cls := joinRig(t)
		want := sortedIDs(len(cls), func(i int) types.TaskID { return cls[i].ID }) // shipping frees them
		adopter := fab.Attach(6)
		shipped := make(chan wire.Migrate, 1)
		go func() {
			env := <-adopter.Recv()
			m, _ := env.Payload.(wire.Migrate)
			shipped <- m
			_ = adopter.Send(&wire.Envelope{Job: 1, From: 6, To: 5, Payload: wire.MigrateAck{Count: len(m.Closures)}})
		}()
		if r := w.shipStateTo(6); r != shipOK {
			t.Fatalf("shipStateTo = %v, want shipOK", r)
		}
		m := <-shipped
		if got := sortedIDs(len(m.Closures), func(i int) types.TaskID { return m.Closures[i].ID }); !slices.Equal(got, want) {
			t.Errorf("migration shipped %v, want %v", got, want)
		}
		if w.join.len() != 0 {
			t.Errorf("%d closures left behind after the adopter acknowledged", w.join.len())
		}
	})
}
