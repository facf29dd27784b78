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

// benchStealCycle measures one complete steal round trip — request, grant
// (with steal-record bookkeeping), adopt, confirm, execute, and result
// delivery back through the victim's record — by driving two workers'
// message handlers directly over a fabric with the given in-flight codec.
// CodecNone isolates scheduler cost, CodecBinary adds the production wire
// codec, and CodecGob is the pre-optimization reference.
func benchStealCycle(b *testing.B, codec phishnet.Codec) {
	prog := NewProgram("stealrig")
	prog.Register("work", func(c model.Ctx) { c.Return(c.Int(0)) })

	fab := phishnet.NewFabric()
	defer fab.Close()
	fab.SetCodec(codec)
	victimPort := fab.Attach(0)
	thiefPort := fab.Attach(1)
	victim := NewWorker(1, 0, prog, victimPort, DefaultConfig(), clock.System)
	thief := NewWorker(1, 1, prog, thiefPort, DefaultConfig(), clock.System)
	view := wire.MembershipView{Epoch: 1, Members: []wire.MemberInfo{
		{Worker: 0, HostedBy: 0},
		{Worker: 1, HostedBy: 1},
	}}
	victim.applyView(view)
	thief.applyView(view)

	// Argument shapes matching a data-carrying steal (cf. the wire
	// benchmarks' stolen closure).
	args := []types.Value{int64(42), "pfold", []int64{1, 2, 3, 4, 5, 6, 7, 8}}
	cont := types.Continuation{Task: types.TaskID{Worker: 0, Seq: 1 << 40}}

	recvV := victimPort.Recv()
	recvT := thiefPort.Recv()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim.spawn("work", cont, args, false, wire.TraceCtx{})
		if err := thief.sendTo(0, wire.StealRequest{Thief: 1}); err != nil {
			b.Fatal(err)
		}
		victim.handle(<-recvV) // StealRequest → grant + record
		thief.handle(<-recvT)  // StealReply → adopt + confirm
		victim.handle(<-recvV) // StealConfirm → record confirmed
		cl, ok := thief.popNext()
		if !ok {
			b.Fatal("thief adopted nothing")
		}
		thief.execute(cl)      // result → Arg back to the victim
		victim.handle(<-recvV) // Arg → consume the steal record
		if len(victim.records) != 0 {
			b.Fatalf("record leaked: %d", len(victim.records))
		}
	}
}

// BenchmarkStealRoundTrip measures one steal request/grant/adopt/confirm
// cycle, the latency a thief pays per successful steal. Sub-benchmarks
// select how envelopes are treated in flight.
func BenchmarkStealRoundTrip(b *testing.B) {
	b.Run("pointer", func(b *testing.B) { benchStealCycle(b, phishnet.CodecNone) })
	b.Run("binary", func(b *testing.B) { benchStealCycle(b, phishnet.CodecBinary) })
	b.Run("gob", func(b *testing.B) { benchStealCycle(b, phishnet.CodecGob) })
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
				victim.spawn("work", cont, args, false, wire.TraceCtx{})
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
