package core

import (
	"testing"
	"time"

	"phish/internal/clock"
	"phish/internal/model"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// A batched steal moves several closures in one reply, and each keeps the
// steal record it would have had alone: these tests hold a batch to the
// one-closure steal's guarantees closure by closure (DESIGN 5i rule 7).

// spawnLeaves puts n ready "work" tasks on w's deque, leaf i returning i to
// slot i of cont's task (or to cont itself when it names no task).
func spawnLeaves(w *Worker, cont types.Continuation, n int) {
	for i := 0; i < n; i++ {
		c := cont
		if !c.None() {
			c.Slot = int32(i)
		}
		spawnWork(w, c, []types.Value{int64(i)})
	}
}

// askFor sends the thief's request for want closures, outstanding the way
// thieveStep marks it.
func askFor(tb testing.TB, thief *Worker, victim types.WorkerID, want uint16) {
	tb.Helper()
	if err := thief.sendTo(victim, wire.StealRequest{Thief: thief.id, Want: want}); err != nil {
		tb.Fatal(err)
	}
	thief.stealPending = true
	thief.stealSentAt = time.Now()
}

// consecutive reports whether ids, in any order, are the ids lo, lo+1, ...
// of one worker.
func consecutive(ids []types.TaskID) bool {
	first := ids[0]
	for _, id := range ids {
		if id.Worker != first.Worker {
			return false
		}
	}
	seen := make(map[uint64]bool, len(ids))
	lo := first.Seq
	for _, id := range ids {
		seen[id.Seq] = true
		lo = min(lo, id.Seq)
	}
	for i := range ids {
		if !seen[lo+uint64(i)] {
			return false
		}
	}
	return true
}

func TestBatchedGrantRecordsEachClosure(t *testing.T) {
	for _, codec := range []phishnet.Codec{phishnet.CodecNone, phishnet.CodecWire} {
		r := newStealRig(t, codec, DefaultConfig())
		spawnLeaves(r.victim, stealRigCont, 40)
		askFor(t, r.thief, 0, 16)
		r.victim.handle(<-r.recvV)
		if got := len(r.victim.records); got != 16 {
			t.Fatalf("codec %v: %d records for a request of 16 against 40 leaves, want 16", codec, got)
		}
		if r.victim.dq.Len() != 24 {
			t.Errorf("victim deque %d after the grant, want 24", r.victim.dq.Len())
		}
		ids := make([]types.TaskID, 0, 16)
		for id, rec := range r.victim.records {
			ids = append(ids, id)
			if rec.task.Cont.Task != id || rec.realCont.Task != stealRigCont.Task || rec.confirmed {
				t.Errorf("record %v: shipped cont %v, real cont %v, confirmed %v; want its own id, %v, false",
					id, rec.task.Cont.Task, rec.realCont, rec.confirmed, stealRigCont.Task)
			}
		}
		if !consecutive(ids) {
			t.Errorf("record ids %v are not minted back to back", ids)
		}
		// A grant made after this one, not yet confirmed: the ranged confirm
		// must not reach it.
		askFor(t, r.thief, 0, 1)
		r.victim.handle(<-r.recvV)
		var later types.TaskID
		for id := range r.victim.records {
			if !containsID(ids, id) {
				later = id
			}
		}

		r.thief.handle(<-r.recvT) // the batch: adopt, one confirm
		if got := r.thief.Stats().TasksStolen; got != 16 {
			t.Errorf("thief TasksStolen = %d, want 16 (closures moved)", got)
		}
		confirm := <-r.recvV
		if err := confirm.Materialize(); err != nil {
			t.Fatal(err)
		}
		sc, ok := confirm.Payload.(wire.StealConfirm)
		if !ok || sc.N != 16 || !containsID(ids, sc.Record) {
			t.Fatalf("thief sent %s %+v, want one StealConfirm of the 16 records", confirm.PayloadName(), confirm.Payload)
		}
		r.victim.handle(confirm)
		for _, id := range ids {
			if !r.victim.records[id].confirmed {
				t.Errorf("record %v of the batch left unconfirmed", id)
			}
		}
		if r.victim.records[later].confirmed {
			t.Errorf("record %v of a later grant confirmed by the batch's confirm", later)
		}
	}
}

func containsID(ids []types.TaskID, id types.TaskID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// A thief that crashes holding an unrun batch loses every closure of it at
// once. The victim redoes each record exactly once, the join they feed sees
// every value once, and a result the crashed thief had already sent — late,
// after the redo delivered — is dropped.
func TestBatchedStealThiefCrashRedoesAll(t *testing.T) {
	const leaves = 16
	r := newStealRig(t, phishnet.CodecNone, DefaultConfig())
	var root int64 = -1
	r.victim.prog.Register("sum", func(c model.Ctx) {
		var s int64
		for i := 0; i < c.NArgs(); i++ {
			s += c.Int(i)
		}
		root = s
	})
	sink := r.victim.closures.Get()
	sink.ID, sink.Fn, sink.Missing = r.victim.nextTaskID(), "sum", leaves
	sink.growArgs(leaves)
	r.victim.join.Put(sink)
	spawnLeaves(r.victim, types.Continuation{Task: sink.ID}, leaves)

	askFor(t, r.thief, 0, 8)
	r.victim.handle(<-r.recvV) // grant 8 of 16
	r.thief.handle(<-r.recvT)  // adopt and confirm
	r.victim.handle(<-r.recvV)
	if len(r.victim.records) != 8 || r.thief.dq.Len() != 8 {
		t.Fatalf("after the steal: %d records, thief deque %d; want 8, 8", len(r.victim.records), r.thief.dq.Len())
	}
	// One stolen leaf runs on the thief; its result is in flight when the
	// thief is declared dead.
	cl, _ := r.thief.popNext()
	r.thief.execute(cl)
	late := <-r.recvV

	r.victim.onWorkerDown(1, nil, wire.TraceCtx{})
	if got := r.victim.Stats().TasksRedone; got != 8 {
		t.Fatalf("redone %d tasks, want the batch's 8 once each", got)
	}
	for cl, ok := r.victim.popNext(); ok; cl, ok = r.victim.popNext() {
		r.victim.execute(cl)
	}
	if want := int64(leaves * (leaves - 1) / 2); root != want {
		t.Fatalf("root = %d, want %d", root, want)
	}
	if len(r.victim.records) != 0 {
		t.Errorf("%d records left after every redone result delivered", len(r.victim.records))
	}
	drops := r.victim.OrphanDrops()
	r.victim.handle(late)
	if r.victim.OrphanDrops() != drops+1 {
		t.Error("the crashed thief's late result was not dropped")
	}
	if r.victim.dq.Len() != 0 || r.victim.join.len() != 0 {
		t.Errorf("the late result moved work: deque %d, waiting %d", r.victim.dq.Len(), r.victim.join.len())
	}
}

// A batch is not all adopted: only the closure its holder runs next is. A
// third worker asking the holder gets the batch's oldest closure, from the
// steal end, and the holder keeps the one it runs next.
func TestBatchTailIsRegrantable(t *testing.T) {
	r := newStealRig(t, phishnet.CodecNone, DefaultConfig())
	third := NewWorker(1, 2, r.victim.prog, r.fab.Attach(2), DefaultConfig(), clock.System)
	recv3 := third.conn.Recv()
	members := view(
		wire.MemberInfo{Worker: 0, HostedBy: 0},
		wire.MemberInfo{Worker: 1, HostedBy: 1},
		wire.MemberInfo{Worker: 2, HostedBy: 2},
	)
	for _, w := range []*Worker{r.victim, r.thief, third} {
		w.applyView(members)
	}
	spawnLeaves(r.victim, stealRigCont, 40)
	askFor(t, r.thief, 0, 8)
	r.victim.handle(<-r.recvV)
	r.thief.handle(<-r.recvT)
	<-r.recvV // the confirm
	if r.thief.dq.Len() != 8 {
		t.Fatalf("thief holds %d, want the batch of 8", r.thief.dq.Len())
	}
	head, _ := r.thief.dq.PeekHead()
	oldest, _ := r.thief.dq.PeekTail()
	oldestID := oldest.ID // the closure is recycled once granted
	for i := 0; i < r.thief.dq.Len(); i++ {
		if cl := r.thief.dq.At(i); cl.adopted != (cl == head) {
			t.Errorf("closure %d of the batch: adopted %v; only the head, run next, may be", i, cl.adopted)
		}
	}

	askFor(t, third, 1, 1)
	r.thief.handle(<-r.recvT)
	third.handle(<-recv3)
	got, ok := third.dq.PeekHead()
	if !ok || got.ID != oldestID {
		t.Fatalf("third worker won %+v, want the batch's oldest closure %v", got, oldestID)
	}
	if h, _ := r.thief.dq.PeekHead(); h != head || !h.adopted || r.thief.dq.Len() != 7 {
		t.Errorf("holder after the re-grant: %d closures, head adopted %v; want 7 and the same adopted head", r.thief.dq.Len(), h.adopted)
	}
}

// The largest batch grantSteal builds fits one UDP datagram: the byte budget
// binds before the ask does, for knary leaves and for leaves that carry a
// checkpoint.
func TestStealBatchFitsOneDatagram(t *testing.T) {
	const maxDatagram = 65507
	for _, tc := range []struct {
		name string
		ckpt []byte
	}{{"knary leaves", nil}, {"1 KB checkpoints", make([]byte, 1024)}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newStealRig(t, phishnet.CodecNone, DefaultConfig())
			for i := 0; i < 2*maxStealWant; i++ {
				cl := r.victim.closures.Get()
				cl.setArgs([]types.Value{int64(0), int64(20000), int64(10000)})
				r.victim.spawn(cl, "knary", stealRigCont, false, wire.TraceCtx{})
				if tc.ckpt != nil {
					cl.setCkpt(tc.ckpt, 1)
				}
			}
			r.victim.grantSteal(1, maxStealWant)
			env := <-r.recvT
			rep, ok := env.Payload.(wire.StealReply)
			if !ok || !rep.OK || len(rep.More) == 0 {
				t.Fatalf("reply %+v, want a granted batch", env.Payload)
			}
			frame, err := wire.Encode(env)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d closures in %d bytes", 1+len(rep.More), len(frame))
			if len(frame) > maxDatagram {
				t.Errorf("a batch of %d closures encodes to %d bytes, over a datagram's %d", 1+len(rep.More), len(frame), maxDatagram)
			}
			if left := r.victim.dq.Len() + 1 + len(rep.More); left != 2*maxStealWant {
				t.Errorf("deque plus batch = %d closures, want %d: the budget lost some", left, 2*maxStealWant)
			}
		})
	}
}

// A thief sizes its ask from what its last batch yielded, in round trips:
// double under K, halve over 4K, hold in between, within [1, maxStealWant].
func TestNextStealWant(t *testing.T) {
	const rtt = 10 * time.Microsecond
	for _, c := range []struct {
		want  int
		yield time.Duration
		next  int
	}{
		{1, rtt, 2},
		{8, stealYieldRTTs*rtt - 1, 16},
		{8, stealYieldRTTs * rtt, 8},
		{8, 4 * stealYieldRTTs * rtt, 8},
		{8, 4*stealYieldRTTs*rtt + 1, 4},
		{1, time.Second, 1},
		{maxStealWant, 0, maxStealWant},
	} {
		if got := nextStealWant(c.want, c.yield, rtt); got != c.next {
			t.Errorf("nextStealWant(%d, %v, %v) = %d, want %d", c.want, c.yield, rtt, got, c.next)
		}
	}
}

// A thief pacing a failure streak can take a Shutdown off its inbox while
// it waits. It must not then send a request to a victim that is leaving and
// sit out a StealTimeout for the answer.
func TestThieveStepSeesShutdownAfterPacing(t *testing.T) {
	w, fab := newTestWorker(t, 5)
	victim := fab.Attach(6)
	ch := fab.Attach(types.ClearinghouseID)
	w.applyView(view(wire.MemberInfo{Worker: 5, HostedBy: 5}, wire.MemberInfo{Worker: 6, HostedBy: 6}))
	w.consecFails = 1
	if err := ch.Send(&wire.Envelope{Job: 1, From: types.ClearinghouseID, To: 5, Payload: wire.Shutdown{Reason: "done"}}); err != nil {
		t.Fatal(err)
	}
	if w.thieveStep() {
		t.Fatal("thieveStep retired the worker")
	}
	if !w.shutdownMsg {
		t.Fatal("the pacing wait did not take the Shutdown")
	}
	if w.stealPending {
		t.Error("a steal request is pending after the Shutdown")
	}
	select {
	case env := <-victim.Recv():
		t.Errorf("the victim received %s after the job shut down", env.PayloadName())
	default:
	}
}
