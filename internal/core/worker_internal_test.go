package core

import (
	"strings"
	"testing"
	"time"

	"phish/internal/clock"
	"phish/internal/model"
	"phish/internal/phishnet"
	"phish/internal/stats"
	"phish/internal/types"
	"phish/internal/wire"
)

// newBenchWorker builds a worker with a live fabric port but without
// running its loop, so internal routing logic can be driven directly.
func newTestWorker(t testing.TB, id types.WorkerID) (*Worker, *phishnet.Fabric) {
	t.Helper()
	fab := phishnet.NewFabric()
	t.Cleanup(fab.Close)
	prog := NewProgram("internal")
	prog.Register("noop", func(c model.Ctx) { c.Return(int64(0)) })
	w := NewWorker(1, id, prog, fab.Attach(id), DefaultConfig(), clock.System)
	return w, fab
}

// foldedStats is Stats as a worker's own goroutine would see it: with the
// plain task counts folded in first.
func (w *Worker) foldedStats() stats.Snapshot {
	w.foldCounters()
	return w.Stats()
}

func view(members ...wire.MemberInfo) wire.MembershipView {
	return wire.MembershipView{Epoch: 1, Members: members}
}

func TestResolveHostIdentityAndTombstones(t *testing.T) {
	w, _ := newTestWorker(t, 5)
	w.applyView(view(
		wire.MemberInfo{Worker: 5, HostedBy: 5},
		wire.MemberInfo{Worker: 7, HostedBy: 7},
		wire.MemberInfo{Worker: 3, HostedBy: 7},              // migrated 3 -> 7
		wire.MemberInfo{Worker: 2, HostedBy: types.NoWorker}, // left with nothing
	))
	cases := []struct {
		minter types.WorkerID
		host   types.WorkerID
		ok     bool
	}{
		{5, 5, true},
		{7, 7, true},
		{3, 7, true},                // tombstone
		{2, types.NoWorker, true},   // departed empty
		{42, types.NoWorker, false}, // never seen
	}
	for _, c := range cases {
		h, ok := w.resolveHost(c.minter)
		if ok != c.ok || (ok && h != c.host) {
			t.Errorf("resolveHost(%d) = (%d,%v), want (%d,%v)", c.minter, h, ok, c.host, c.ok)
		}
	}
	// The clearinghouse is always routable.
	if h, ok := w.resolveHost(types.ClearinghouseID); !ok || h != types.ClearinghouseID {
		t.Errorf("resolveHost(CH) = (%d,%v)", h, ok)
	}
}

func TestResolveHostFlattensOneChainLevel(t *testing.T) {
	w, _ := newTestWorker(t, 5)
	// A stale view with an unflattened chain 3 -> 7 -> 9 (the
	// clearinghouse normally flattens; the worker tolerates one level).
	w.applyView(view(
		wire.MemberInfo{Worker: 5, HostedBy: 5},
		wire.MemberInfo{Worker: 9, HostedBy: 9},
		wire.MemberInfo{Worker: 7, HostedBy: 9},
		wire.MemberInfo{Worker: 3, HostedBy: 7},
	))
	if h, _ := w.resolveHost(3); h != 9 {
		t.Errorf("chain not flattened: resolveHost(3) = %d, want 9", h)
	}
}

func TestVictimListExcludesSelfAndDeparted(t *testing.T) {
	w, _ := newTestWorker(t, 5)
	w.dead[8] = true
	w.applyView(view(
		wire.MemberInfo{Worker: 5, HostedBy: 5},
		wire.MemberInfo{Worker: 6, HostedBy: 6},
		wire.MemberInfo{Worker: 7, HostedBy: 9}, // migrated away
		wire.MemberInfo{Worker: 8, HostedBy: 8}, // dead (stale view)
		wire.MemberInfo{Worker: 9, HostedBy: 9},
	))
	if len(w.victims) != 2 {
		t.Fatalf("victims = %v, want [6 9]", w.victims)
	}
	for _, v := range w.victims {
		if v != 6 && v != 9 {
			t.Errorf("bad victim %d", v)
		}
	}
}

func TestStaleViewIgnored(t *testing.T) {
	w, _ := newTestWorker(t, 5)
	w.applyView(wire.MembershipView{Epoch: 5, Members: []wire.MemberInfo{
		{Worker: 5, HostedBy: 5}, {Worker: 6, HostedBy: 6},
	}})
	// An older epoch must not clobber the newer view.
	w.applyView(wire.MembershipView{Epoch: 3, Members: []wire.MemberInfo{
		{Worker: 5, HostedBy: 5},
	}})
	if len(w.victims) != 1 || w.victims[0] != 6 {
		t.Errorf("stale view applied: victims = %v", w.victims)
	}
}

func TestFillSlotDeduplicatesAndBoundsChecks(t *testing.T) {
	w, _ := newTestWorker(t, 5)
	cl := &Closure{
		ID:      types.TaskID{Worker: 5, Seq: 1},
		Fn:      "noop",
		Args:    make([]types.Value, 2),
		Missing: 2,
	}
	w.join.Put(cl)
	cont0 := types.Continuation{Task: cl.ID, Slot: 0}

	w.fillSlot(cont0, int64(1), false, true)
	if cl.Missing != 1 || cl.Args[0].(int64) != 1 {
		t.Fatalf("first fill broken: %+v", cl)
	}
	// Duplicate delivery into the same slot is dropped, not double-counted.
	w.fillSlot(cont0, int64(99), false, true)
	if cl.Missing != 1 || cl.Args[0].(int64) != 1 {
		t.Errorf("duplicate fill corrupted the closure: %+v", cl)
	}
	if w.orphanDrops.Load() != 1 {
		t.Errorf("duplicate fill not counted as a drop: %d", w.orphanDrops.Load())
	}
	// Out-of-range slot is dropped.
	w.fillSlot(types.Continuation{Task: cl.ID, Slot: 9}, int64(1), false, true)
	if cl.Missing != 1 {
		t.Errorf("out-of-range fill corrupted the join counter")
	}
	// The last fill readies the closure onto the deque.
	w.fillSlot(types.Continuation{Task: cl.ID, Slot: 1}, int64(2), true, true)
	if w.join.Get(cl.ID) != nil {
		t.Error("ready closure still in the waiting table")
	}
	if w.dq.Len() != 1 {
		t.Error("ready closure not enqueued")
	}
	w.foldCounters()
	if w.counters.Synchronizations.Load() != 2 {
		t.Errorf("synchs = %d, want 2", w.counters.Synchronizations.Load())
	}
	if w.counters.NonLocalSynchs.Load() != 1 {
		t.Errorf("non-local synchs = %d, want 1 (one crossed fill)", w.counters.NonLocalSynchs.Load())
	}
}

func TestTakeStealableSkipsPinnedRoot(t *testing.T) {
	w, _ := newTestWorker(t, 5)
	root := &Closure{ID: types.TaskID{Worker: 5, Seq: 1}, Fn: "noop", NoSteal: true}
	w.dq.PushHead(root)
	if got, _ := w.takeStealable(1); len(got) != 0 {
		t.Fatal("pinned root was stealable")
	}
	if w.dq.Len() != 1 {
		t.Fatal("pinned root lost by the steal probe")
	}
	// With a normal task behind it, the tail (the normal task... order:
	// push root first then task -> tail is root). Push the other way.
	task := &Closure{ID: types.TaskID{Worker: 5, Seq: 2}, Fn: "noop"}
	w.dq.PushTail(task)
	got, _ := w.takeStealable(1)
	if len(got) != 1 || got[0].ID != task.ID {
		t.Fatalf("stealable = %+v", got)
	}
}

func TestGrantStealCreatesRecordAndRetiresTask(t *testing.T) {
	w, fab := newTestWorker(t, 5)
	thiefPort := fab.Attach(6)
	w.applyView(view(
		wire.MemberInfo{Worker: 5, HostedBy: 5},
		wire.MemberInfo{Worker: 6, HostedBy: 6},
	))
	cl := &Closure{ID: types.TaskID{Worker: 5, Seq: 1}, Fn: "noop",
		Cont: types.Continuation{Task: types.TaskID{Worker: 5, Seq: 99}}}
	w.tasks.created()
	w.dq.PushHead(cl)

	w.grantSteal(6, 1)
	if w.dq.Len() != 0 {
		t.Fatal("task not removed by grant")
	}
	if len(w.records) != 1 {
		t.Fatal("no steal record created")
	}
	var rec *stealRecord
	for _, r := range w.records {
		rec = r
	}
	if rec.thief != 6 || rec.confirmed {
		t.Errorf("record = %+v", rec)
	}
	if rec.realCont.Task.Seq != 99 {
		t.Errorf("record kept wrong continuation: %v", rec.realCont)
	}
	// The shipped closure's continuation targets the record.
	env := <-thiefPort.Recv()
	rep := env.Payload.(wire.StealReply)
	if !rep.OK || rep.Task.Cont.Task != rec.id {
		t.Errorf("stolen task cont = %v, want record %v", rep.Task.Cont, rec.id)
	}
	w.foldCounters()
	if got := w.counters.TasksInUse.Load(); got != 0 {
		t.Errorf("tasks in use after grant = %d, want 0", got)
	}
}

// Two idle workers and one ready closure: B steals it from A, and A — idle
// again the moment it granted — has its own request queued at B before B
// reads the reply. B must keep the task until it has run it; handing it
// back would start a bounce that adds one steal record per hop.
func TestAdoptedClosureIsNotRegranted(t *testing.T) {
	a, fab := newTestWorker(t, 5)
	prog := NewProgram("internal")
	prog.Register("noop", func(c model.Ctx) { c.Return(int64(0)) })
	b := NewWorker(1, 6, prog, fab.Attach(6), DefaultConfig(), clock.System)
	members := view(
		wire.MemberInfo{Worker: 5, HostedBy: 5},
		wire.MemberInfo{Worker: 6, HostedBy: 6},
	)
	a.applyView(members)
	b.applyView(members)

	wide := &Closure{ID: types.TaskID{Worker: 5, Seq: 1}, Fn: "noop", Args: make([]types.Value, 2000),
		Cont: types.Continuation{Task: types.TaskID{Worker: 5, Seq: 99}}}
	for i := range wide.Args {
		wide.Args[i] = int64(i)
	}
	a.tasks.created()
	a.dq.PushHead(wide)

	request := func(thief, victim *Worker) {
		t.Helper()
		if err := thief.sendTo(victim.id, wire.StealRequest{Thief: thief.id}); err != nil {
			t.Fatal(err)
		}
		thief.stealPending = true
	}
	transfers := func() int64 {
		return a.counters.TasksStolen.Load() + b.counters.TasksStolen.Load()
	}

	request(b, a)
	a.drainAll() // grant: the reply is on its way to B
	request(a, b)
	b.drainOne(time.Second) // reply (adopt), then A's request in the same drain
	// Keep both thieves asking for a few more rounds, as idle workers do.
	for round := 0; round < 4; round++ {
		a.drainAll()
		request(a, b)
		b.drainAll()
	}
	if got := transfers(); got != 1 {
		t.Fatalf("transfers = %d, want 1 (the closure bounced)", got)
	}
	if len(a.records) != 1 || len(b.records) != 0 {
		t.Fatalf("steal records: a=%d b=%d, want the one record of the one steal", len(a.records), len(b.records))
	}
	if b.dq.Len() != 1 || a.dq.Len() != 0 {
		t.Fatalf("deques: a=%d b=%d, want the task on its adopter", a.dq.Len(), b.dq.Len())
	}

	// Running it ends the hold: the result consumes A's record one hop away.
	cl, _ := b.popNext()
	b.execute(cl)
	a.drainAll()
	if len(a.records) != 0 {
		t.Errorf("record not consumed by the result: %d left", len(a.records))
	}
}

func TestGrantStealRevertsWhenThiefUnreachable(t *testing.T) {
	w, _ := newTestWorker(t, 5)
	cl := &Closure{ID: types.TaskID{Worker: 5, Seq: 1}, Fn: "noop"}
	w.tasks.created()
	w.dq.PushHead(cl)
	w.grantSteal(99, 1) // no such port
	if w.dq.Len() != 1 {
		t.Error("task lost on failed grant")
	}
	if len(w.records) != 0 {
		t.Error("record leaked on failed grant")
	}
	// A batch goes back whole, in the order it was found.
	for seq := uint64(2); seq <= 6; seq++ {
		w.tasks.created()
		w.dq.PushHead(&Closure{ID: types.TaskID{Worker: 5, Seq: seq}, Fn: "noop"})
	}
	w.grantSteal(99, 4)
	if len(w.records) != 0 {
		t.Error("record leaked on failed batch grant")
	}
	for i, seq := 0, uint64(6); seq >= 1; i, seq = i+1, seq-1 {
		if got := w.dq.At(i).ID.Seq; got != seq {
			t.Fatalf("deque slot %d holds seq %d after a failed batch grant, want %d", i, got, seq)
		}
	}
}

// Over UDP a closure wider than a datagram cannot be granted. The victim
// keeps it, keeps no record of a steal that did not happen, and answers
// "nothing" so the thief neither waits out its timeout nor suspects it.
func TestGrantStealAnswersWhenClosureCannotTravel(t *testing.T) {
	victimConn, err := phishnet.ListenUDP(1, 5, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	thiefConn, err := phishnet.ListenUDP(1, 6, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer thiefConn.Close()
	victimConn.SetPeer(6, thiefConn.LocalAddr())
	thiefConn.SetPeer(5, victimConn.LocalAddr())
	w := NewWorker(1, 5, NewProgram("internal"), victimConn, DefaultConfig(), clock.System)
	defer victimConn.Close()

	wide := &Closure{ID: types.TaskID{Worker: 5, Seq: 1}, Fn: "noop", Args: make([]types.Value, 20000)}
	for i := range wide.Args {
		wide.Args[i] = int64(i)
	}
	w.tasks.created()
	w.dq.PushHead(wide)
	w.grantSteal(6, 1)
	if w.dq.Len() != 1 || len(w.records) != 0 {
		t.Fatalf("after a grant that could not be sent: deque %d, records %d; want 1, 0", w.dq.Len(), len(w.records))
	}
	select {
	case env := <-thiefConn.Recv():
		if err := env.Materialize(); err != nil {
			t.Fatal(err)
		}
		if rep, ok := env.Payload.(wire.StealReply); !ok || rep.OK {
			t.Errorf("thief received %#v, want a failed steal reply", env.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("thief was left waiting: no steal reply")
	}
}

func TestRedoRecordRequeuesCopy(t *testing.T) {
	w, _ := newTestWorker(t, 5)
	rec := &stealRecord{
		id:       types.TaskID{Worker: 5, Seq: 10},
		realCont: types.Continuation{Task: types.TaskID{Worker: 5, Seq: 1}},
		thief:    7,
		task: wire.Closure{ID: types.TaskID{Worker: 5, Seq: 2}, Fn: "noop",
			Cont: types.Continuation{Task: types.TaskID{Worker: 5, Seq: 10}}},
	}
	w.records[rec.id] = rec
	w.redoRecord(rec)
	if rec.thief != 5 || !rec.confirmed {
		t.Errorf("record not localized: %+v", rec)
	}
	if w.dq.Len() != 1 {
		t.Fatal("copy not requeued")
	}
	if w.counters.TasksRedone.Load() != 1 {
		t.Error("redo not counted")
	}
}

func TestPurgeOrphansDropsDeadConsumers(t *testing.T) {
	w, _ := newTestWorker(t, 5)
	w.applyView(view(
		wire.MemberInfo{Worker: 5, HostedBy: 5},
		wire.MemberInfo{Worker: 6, HostedBy: 6},
	))
	w.dead[9] = true // crashed, no tombstone
	deadCont := types.Continuation{Task: types.TaskID{Worker: 9, Seq: 1}}
	liveCont := types.Continuation{Task: types.TaskID{Worker: 6, Seq: 1}}

	orphan := &Closure{ID: types.TaskID{Worker: 5, Seq: 1}, Fn: "noop", Args: make([]types.Value, 1), Missing: 1, Cont: deadCont}
	keeper := &Closure{ID: types.TaskID{Worker: 5, Seq: 2}, Fn: "noop", Args: make([]types.Value, 1), Missing: 1, Cont: liveCont}
	w.join.Put(orphan)
	w.join.Put(keeper)
	w.tasks.created()
	w.tasks.created()
	readyOrphan := &Closure{ID: types.TaskID{Worker: 5, Seq: 3}, Fn: "noop", Cont: deadCont}
	w.dq.PushHead(readyOrphan)
	w.tasks.created()

	w.purgeOrphans()
	if w.join.Get(orphan.ID) != nil {
		t.Error("waiting orphan survived the purge")
	}
	if w.join.Get(keeper.ID) == nil {
		t.Error("live consumer was purged")
	}
	if w.dq.Len() != 0 {
		t.Error("ready orphan survived the purge")
	}
}

func TestStatsReportInboxHighWater(t *testing.T) {
	w, fab := newTestWorker(t, 5)
	peer := fab.Attach(6)
	for i := 0; i < 7; i++ {
		if err := peer.Send(&wire.Envelope{Job: 1, From: 6, To: 5, Payload: wire.StealConfirm{}}); err != nil {
			t.Fatal(err)
		}
	}
	w.drainAll()
	if err := peer.Send(&wire.Envelope{Job: 1, From: 6, To: 5, Payload: wire.StealConfirm{}}); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().MailboxDepthMax; got != 7 {
		t.Errorf("inbox high-water mark = %d, want 7 (the deepest it has been, not its depth now)", got)
	}
}

// A clearinghouse that dies with the root result still unread in its inbox
// loses it, and the worker that sent it saw no send fail. What gives the
// loss away is the restarted clearinghouse telling that worker to stay —
// the job, as far as it knows, is still running — and the worker answers by
// sending the result again.
func TestStayReplyResendsLostRootResult(t *testing.T) {
	w, fab := newTestWorker(t, 5)
	chPort := fab.Attach(types.ClearinghouseID)
	w.registered = true
	rootCont := types.Continuation{Task: types.TaskID{Worker: types.ClearinghouseID, Seq: 1}}
	w.deliver(rootCont, int64(42), false, wire.TraceCtx{})
	<-chPort.Recv() // the copy the first clearinghouse took to its grave

	w.handle(&wire.Envelope{Job: 1, From: types.ClearinghouseID, To: 5, Payload: wire.StayReply{Stay: true}})
	select {
	case env := <-chPort.Recv():
		if a, ok := env.Payload.(wire.Arg); !ok || a.Cont != rootCont || a.Val != int64(42) {
			t.Errorf("clearinghouse received %#v, want the root result again", env.Payload)
		}
	default:
		t.Fatal("told to stay with the job's result already sent, the worker did not send it again")
	}
	// A worker that never held the result has nothing to add.
	other, _ := newTestWorker(t, 6)
	other.handle(&wire.Envelope{Job: 1, From: types.ClearinghouseID, To: 6, Payload: wire.StayReply{Stay: true}})
	if other.counters.MessagesSent.Load() != 0 {
		t.Error("a worker without the root result sent something on StayReply")
	}
}

// A closure carries its Fn by name, and each worker resolves the name in its
// own table: a stolen or migrated closure runs its own Fn even when the memo
// set its name hashes to already holds another Fn on the worker that adopts
// it, and its result reaches its own continuation.
func TestMigratedClosureRunsItsOwnFn(t *testing.T) {
	decoy := func(c model.Ctx) { c.Return("decoy") }
	// occupy fills both slots of w's memo set for name with the decoy,
	// through two copies of "decoy" whose bytes hash to that set.
	occupy := func(t *testing.T, w *Worker, name string) {
		t.Helper()
		for filled := 0; filled < 2; {
			if d := strings.Clone("decoy"); fnMemoIndex(d) == fnMemoIndex(name) {
				w.fns.entry(d)
				filled++
			}
		}
		set, decoy := w.fns.memo[fnMemoIndex(name)], w.fns.byName["decoy"]
		if set[0].e != decoy || set[1].e != decoy {
			t.Fatal("the decoy does not hold the set")
		}
	}

	t.Run("stolen", func(t *testing.T) {
		r := newStealRig(t, phishnet.CodecWire, DefaultConfig())
		r.thief.prog.Register("decoy", decoy)
		r.request(t, []types.Value{int64(7)})
		r.victim.handle(<-r.recvV) // grant
		r.thief.handle(<-r.recvT)  // adopt: the Fn name comes off the wire
		r.victim.handle(<-r.recvV) // confirm
		var record types.TaskID
		for id := range r.victim.records {
			record = id
		}
		cl, ok := r.thief.popNext()
		if !ok {
			t.Fatal("the thief adopted nothing")
		}
		occupy(t, r.thief, cl.Fn)
		r.thief.execute(cl)
		env := <-r.recvV
		if err := env.Materialize(); err != nil {
			t.Fatal(err)
		}
		arg, ok := env.Payload.(wire.Arg)
		if !ok || arg.Cont.Task != record || arg.Val != int64(7) {
			t.Errorf("the stolen task sent %s %+v, want work's result 7 for the victim's record %v",
				env.PayloadName(), env.Payload, record)
		}
	})

	t.Run("migrated", func(t *testing.T) {
		w, _ := newTestWorker(t, 5)
		w.prog.Register("decoy", decoy)
		w.prog.Register("seven", func(c model.Ctx) { c.Return(int64(7)) })
		w.applyView(view(wire.MemberInfo{Worker: 5, HostedBy: 5}, wire.MemberInfo{Worker: 9, HostedBy: 5}))
		sink := w.closures.Get()
		sink.ID, sink.Fn, sink.Missing = w.nextTaskID(), "noop", 1
		sink.growArgs(1)
		w.join.Put(sink)
		// The name arrives with its own backing array, as one decoded on the
		// departing worker's side would.
		w.adoptMigration(9, wire.Migrate{From: 9, Closures: []wire.Closure{{ID: types.TaskID{Worker: 9, Seq: 1},
			Fn: strings.Clone("seven"), Cont: types.Continuation{Task: sink.ID}}}})
		cl, ok := w.popNext()
		if !ok {
			t.Fatal("nothing migrated in")
		}
		occupy(t, w, cl.Fn)
		w.execute(cl)
		if sink.Missing != 0 || sink.Args[0] != int64(7) {
			t.Errorf("the sink holds %v with %d missing, want seven's result 7", sink.Args, sink.Missing)
		}
	})
}

// A SuspectSet naming one of two victims steers every steal to the other
// until the mark expires on the worker's clock, and redoes at once a task
// lent to the suspect long past its speculation deadline; a task lent to
// the healthy peer stays lent.
func TestSuspectSetSteersStealsUntilItExpires(t *testing.T) {
	fab := phishnet.NewFabric()
	t.Cleanup(fab.Close)
	fake := clock.NewFake()
	prog := NewProgram("internal")
	prog.Register("noop", func(c model.Ctx) { c.Return(int64(0)) })
	cfg := DefaultConfig()
	cfg.SuspectTTL = 10 * time.Second
	w := NewWorker(1, 5, prog, fab.Attach(5), cfg, fake)
	w.applyView(view(
		wire.MemberInfo{Worker: 5, HostedBy: 5},
		wire.MemberInfo{Worker: 6, HostedBy: 6},
		wire.MemberInfo{Worker: 7, HostedBy: 7},
	))
	// The Fn has a local p99 to hold the thieves to.
	e := w.fns.entry("noop")
	for i := 0; i < execWarmup; i++ {
		e.exec.observe(time.Millisecond)
	}
	lend := func(seq uint64, thief types.WorkerID) *stealRecord {
		rec := &stealRecord{
			id:       types.TaskID{Worker: 5, Seq: seq},
			realCont: types.Continuation{Task: types.TaskID{Worker: 5, Seq: 1}},
			thief:    thief,
			task: wire.Closure{ID: types.TaskID{Worker: 5, Seq: seq + 100}, Fn: "noop",
				Cont: types.Continuation{Task: types.TaskID{Worker: 5, Seq: seq}}},
			confirmed: true,
			grantedAt: fake.Now().Add(-time.Minute),
		}
		w.records[rec.id] = rec
		return rec
	}
	toSuspect, toHealthy := lend(10, 6), lend(11, 7)

	w.handle(&wire.Envelope{Job: 1, From: types.ClearinghouseID, To: 5,
		Payload: wire.SuspectSet{Suspects: []wire.SuspectInfo{{Worker: 6}}}})
	if toSuspect.thief != 5 || w.dq.Len() != 1 || w.counters.SpeculativeRedos.Load() != 1 {
		t.Errorf("task lent to the suspect not redone: thief %d, deque %d, speculative redos %d",
			toSuspect.thief, w.dq.Len(), w.counters.SpeculativeRedos.Load())
	}
	if toHealthy.thief != 7 {
		t.Errorf("task lent to the healthy peer was redone")
	}

	picks := func() map[types.WorkerID]int {
		got := map[types.WorkerID]int{}
		for i := 0; i < 200; i++ {
			v, ok := w.pickVictim()
			if !ok {
				t.Fatal("no victim")
			}
			got[v]++
		}
		return got
	}
	if got := picks(); got[6] != 0 || got[7] != 200 {
		t.Fatalf("picks with 6 suspect = %v, want 7 alone", got)
	}
	fake.Advance(cfg.SuspectTTL)
	if got := picks(); got[6] != 0 {
		t.Fatalf("picks at the mark's expiry = %v, want 7 alone", got)
	}
	fake.Advance(time.Millisecond)
	if got := picks(); got[6] == 0 || got[7] == 0 {
		t.Fatalf("picks after the mark expired = %v, want both victims", got)
	}
}
