package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"phish/internal/clock"
	"phish/internal/model"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// stealRig is a victim (worker 0) and a thief (worker 1) on one fabric
// with neither loop running: the caller drives their message handlers by
// hand, one envelope at a time, so a steal round trip is a fixed sequence
// of steps. It serves BenchmarkStealRoundTrip and the dispatch tests.
type stealRig struct {
	victim, thief *Worker
	recvV, recvT  <-chan *wire.Envelope
	fab           *phishnet.Fabric
}

func newStealRig(tb testing.TB, codec phishnet.Codec, cfg Config) *stealRig {
	prog := NewProgram("stealrig")
	prog.Register("work", func(c model.Ctx) { c.Return(c.Int(0)) })

	fab := phishnet.NewFabric()
	tb.Cleanup(fab.Close)
	fab.SetCodec(codec)
	victimPort := fab.Attach(0)
	thiefPort := fab.Attach(1)
	r := &stealRig{
		victim: NewWorker(1, 0, prog, victimPort, cfg, clock.System),
		thief:  NewWorker(1, 1, prog, thiefPort, cfg, clock.System),
		recvV:  victimPort.Recv(),
		recvT:  thiefPort.Recv(),
		fab:    fab,
	}
	view := wire.MembershipView{Epoch: 1, Members: []wire.MemberInfo{
		{Worker: 0, HostedBy: 0},
		{Worker: 1, HostedBy: 1},
	}}
	r.victim.applyView(view)
	r.thief.applyView(view)
	return r
}

// Argument shapes matching a data-carrying steal (cf. the wire tests'
// stolen closure), and a continuation nobody waits on.
var (
	stealRigArgs = []types.Value{int64(42), "pfold", []int64{1, 2, 3, 4, 5, 6, 7, 8}}
	stealRigCont = types.Continuation{Task: types.TaskID{Worker: 0, Seq: 1 << 40}}
)

// request spawns one task on the victim and sends the thief's steal
// request for it, marked outstanding the way thieveStep marks it.
func (r *stealRig) request(tb testing.TB, args []types.Value) {
	spawnWork(r.victim, stealRigCont, args)
	if err := r.thief.sendTo(0, wire.StealRequest{Thief: 1}); err != nil {
		tb.Fatal(err)
	}
	r.thief.stealPending = true
	r.thief.stealSentAt = time.Now()
}

// spawnWork puts a ready "work" task with a copy of args on w's deque.
func spawnWork(w *Worker, cont types.Continuation, args []types.Value) {
	cl := w.closures.Get()
	cl.setArgs(args)
	w.spawn(cl, "work", cont, false, wire.TraceCtx{})
}

// cycle is one complete steal round trip — request, grant (with
// steal-record bookkeeping), adopt, confirm, execute, and result delivery
// back through the victim's record.
func (r *stealRig) cycle(tb testing.TB) {
	r.request(tb, stealRigArgs)
	r.victim.handle(<-r.recvV) // StealRequest → grant + record
	r.thief.handle(<-r.recvT)  // StealReply → adopt + confirm
	r.victim.handle(<-r.recvV) // StealConfirm → record confirmed
	cl, ok := r.thief.popNext()
	if !ok {
		tb.Fatal("thief adopted nothing")
	}
	r.thief.execute(cl)        // result → Arg back to the victim
	r.victim.handle(<-r.recvV) // Arg → consume the steal record
	if len(r.victim.records) != 0 {
		tb.Fatalf("record leaked: %d", len(r.victim.records))
	}
}

// BenchmarkStealRoundTrip measures one steal request/grant/adopt/confirm
// cycle, the latency a thief pays per successful steal, by driving two
// workers' message handlers directly over a fabric. The pointer arm hands
// envelopes over untouched and isolates scheduler cost; the wire arm adds
// what a real transport adds, a frame encoded and read back in place.
func BenchmarkStealRoundTrip(b *testing.B) {
	for _, arm := range []struct {
		name  string
		codec phishnet.Codec
	}{{"pointer", phishnet.CodecNone}, {"wire", phishnet.CodecWire}} {
		b.Run(arm.name, func(b *testing.B) {
			r := newStealRig(b, arm.codec, DefaultConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.cycle(b)
			}
		})
	}
}

// BenchmarkStealBatch measures one full batched steal over the wire codec:
// the victim picks and sizes the batch and encodes it into one reply, the
// thief reads it in place and adopts every closure, and the victim takes
// the one ranged confirm. The victim holds twice the largest ask of
// flat-tree leaves, so the byte budget, not the ask, ends the batch.
func BenchmarkStealBatch(b *testing.B) {
	r := newStealRig(b, phishnet.CodecWire, DefaultConfig())
	leaf := []types.Value{int64(0), int64(20000), int64(10000)}
	refill := func() {
		for r.victim.dq.Len() < 2*maxStealWant {
			spawnWork(r.victim, stealRigCont, leaf)
		}
		for cl, ok := r.thief.popNext(); ok; cl, ok = r.thief.popNext() {
			r.thief.closures.Put(cl)
		}
		clear(r.victim.records)
	}
	refill()
	b.ReportAllocs()
	b.ResetTimer()
	moved := 0
	for i := 0; i < b.N; i++ {
		if err := r.thief.sendTo(0, wire.StealRequest{Thief: 1, Want: maxStealWant}); err != nil {
			b.Fatal(err)
		}
		r.victim.handle(<-r.recvV) // grant: take, size, record, encode
		r.thief.handle(<-r.recvT)  // adopt the batch, one confirm
		r.victim.handle(<-r.recvV) // the ranged confirm
		b.StopTimer()
		moved += r.thief.dq.Len()
		refill()
		b.StartTimer()
	}
	b.ReportMetric(float64(moved)/float64(b.N), "closures/op")
}

// BenchmarkFabricStealRTT measures the steal round trip between two live
// goroutines instead of one driving both handlers: a victim that polls its
// inbox between (empty) tasks on its own thread, as a busy worker does, and
// a thief that sends a request and waits for the reply the way thieveStep
// does — spin, then park. What it adds to BenchmarkStealRoundTrip is the
// inbox hop and the idle wait, the two places a reply can sit unseen.
func BenchmarkFabricStealRTT(b *testing.B) {
	prog := NewProgram("stealrig")
	prog.Register("work", func(c model.Ctx) { c.Return(c.Int(0)) })

	fab := phishnet.NewFabric()
	defer fab.Close()
	victim := NewWorker(1, 0, prog, fab.Attach(0), DefaultConfig(), clock.System)
	thief := NewWorker(1, 1, prog, fab.Attach(1), DefaultConfig(), clock.System)
	view := wire.MembershipView{Epoch: 1, Members: []wire.MemberInfo{
		{Worker: 0, HostedBy: 0},
		{Worker: 1, HostedBy: 1},
	}}
	victim.applyView(view)
	thief.applyView(view)

	args := []types.Value{int64(42)}
	cont := types.Continuation{Task: types.TaskID{Worker: 0, Seq: 1 << 40}}
	// Neither worker is inside Run, so count them by hand: at -cpu 1 the
	// thief must see that it shares its P with the victim.
	runningWorkers.Add(2)
	defer runningWorkers.Add(-2)
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for !stop.Load() {
			if victim.dq.Empty() {
				spawnWork(victim, cont, args)
			}
			victim.drainAll()
			runtime.Gosched() // keeps -cpu 1 runs live; free when the thief has its own P
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A request that lands between the victim's grant and its next
		// spawn fails, as it would against a real worker; ask again.
		for thief.dq.Empty() {
			if err := thief.sendTo(0, wire.StealRequest{Thief: 1}); err != nil {
				b.Fatal(err)
			}
			thief.stealPending = true
			thief.stealDeadline = time.Now().Add(time.Second)
			for thief.stealPending {
				thief.awaitSteal()
			}
		}
		cl, _ := thief.popNext()
		thief.execute(cl) // result → Arg back to the victim's record
	}
	b.StopTimer()
	stop.Store(true)
	<-done
}
