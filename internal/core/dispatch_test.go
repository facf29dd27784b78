package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"phish/internal/clock"
	"phish/internal/phishnet"
	"phish/internal/stats"
	"phish/internal/telemetry"
	"phish/internal/types"
	"phish/internal/wire"
)

// A Conn hands a hot message to handle either as the struct its sender
// built or as a view of the frame it arrived in. These tests hold the two
// forms to one behaviour: same counters, same tables, same drops.

// throughWire re-delivers env the way a frame-decoding transport would:
// encoded, optionally damaged, and read back in place.
func throughWire(t *testing.T, env *wire.Envelope, damage func(frame []byte)) *wire.Envelope {
	t.Helper()
	if err := env.Materialize(); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	if damage != nil {
		damage(frame)
	}
	out, err := wire.DecodeView(frame, nil)
	if err != nil {
		t.Fatalf("DecodeView: %v (damage must leave the framing intact)", err)
	}
	if _, ok := out.Payload.(*wire.View); !ok {
		t.Fatalf("%s decoded as %T, not a view", env.PayloadName(), out.Payload)
	}
	return out
}

// marker is an int64 whose eight encoded bytes are easy to find in a
// frame; the byte before them is the value's kind tag.
const marker = int64(0x0102030405060708)

// corruptMarkerKind overwrites the kind tag of the marker value with one
// no decoder knows, leaving every length in the frame as it was.
func corruptMarkerKind(t *testing.T) func([]byte) {
	return func(frame []byte) {
		i := bytes.Index(frame, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		if i < 1 {
			t.Fatal("marker value not in frame")
		}
		frame[i-1] = 0x7F
	}
}

func TestStealCycleSameOnBothPayloadForms(t *testing.T) {
	type outcome struct {
		victim, thief  stats.Snapshot
		records        int
		vDeque, tDeque int
		vWait, tWait   int
		rttSamples     int64
	}
	run := func(codec phishnet.Codec) outcome {
		cfg := DefaultConfig()
		cfg.Metrics = telemetry.NewMetrics()
		r := newStealRig(t, codec, cfg)
		for i := 0; i < 3; i++ {
			r.cycle(t)
		}
		return outcome{
			victim: r.victim.foldedStats(), thief: r.thief.foldedStats(),
			records: len(r.victim.records),
			vDeque:  r.victim.dq.Len(), tDeque: r.thief.dq.Len(),
			vWait: r.victim.join.len(), tWait: r.thief.join.len(),
			rttSamples: cfg.Metrics.StealRTT().Snapshot().Count,
		}
	}
	structs, views := run(phishnet.CodecNone), run(phishnet.CodecWire)
	if structs != views {
		t.Errorf("a steal cycle left different state behind\n structs %+v\n views   %+v", structs, views)
	}
	if structs.records != 0 || structs.rttSamples != 3 {
		t.Errorf("after 3 cycles: %d records, %d RTT samples; want 0, 3", structs.records, structs.rttSamples)
	}
}

// A reply that straggles in after the thief timed the request out pairs
// with no request: it yields no round-trip sample, in either form.
func TestStaleStealReplyYieldsNoRTTSample(t *testing.T) {
	for _, form := range []string{"struct", "view"} {
		t.Run(form, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Metrics = telemetry.NewMetrics()
			r := newStealRig(t, phishnet.CodecNone, cfg)
			r.request(t, stealRigArgs)
			r.victim.handle(<-r.recvV)
			r.thief.stealPending = false // thieveStep's timeout fired
			reply := <-r.recvT
			if form == "view" {
				reply = throughWire(t, reply, nil)
			}
			r.thief.handle(reply)
			if n := cfg.Metrics.StealRTT().Snapshot().Count; n != 0 {
				t.Errorf("%d RTT samples from a reply to a timed-out request", n)
			}
			if got := r.thief.Stats().TasksStolen; got != 1 {
				t.Errorf("TasksStolen = %d; the late grant is still a task, want 1", got)
			}
		})
	}
}

// A granted steal whose closure body cannot be decoded is a reply lost in
// flight: the thief adopts nothing and confirms nothing, and the victim's
// unconfirmed record redoes the task once it gives up on the thief.
func TestCorruptStolenClosureIsALostReply(t *testing.T) {
	r := newStealRig(t, phishnet.CodecNone, DefaultConfig())
	r.request(t, []types.Value{marker})
	r.victim.handle(<-r.recvV)
	before := r.thief.foldedStats()
	r.thief.handle(throughWire(t, <-r.recvT, corruptMarkerKind(t)))

	after := r.thief.foldedStats()
	before.MessagesReceived++ // the reply did arrive
	if after != before || r.thief.dq.Len() != 0 || r.thief.join.len() != 0 {
		t.Errorf("thief changed by a reply it could not decode:\n before %+v\n after  %+v\n deque %d, waiting %d",
			before, after, r.thief.dq.Len(), r.thief.join.len())
	}
	if r.thief.stealPending {
		t.Error("the request is still pending: the thief would wait out its timeout")
	}
	select {
	case env := <-r.recvV:
		t.Fatalf("thief sent %s for a task it does not hold", env.PayloadName())
	default:
	}
	if len(r.victim.records) != 1 {
		t.Fatalf("victim holds %d records, want the 1 unconfirmed", len(r.victim.records))
	}
	r.victim.onWorkerDown(1, nil, wire.TraceCtx{})
	if r.victim.dq.Len() != 1 || r.victim.Stats().TasksRedone != 1 {
		t.Errorf("the unconfirmed record did not redo: deque %d, redone %d",
			r.victim.dq.Len(), r.victim.Stats().TasksRedone)
	}
}

// An Arg view whose value body cannot be decoded is dropped like a garbage
// frame: the slot it aimed at stays empty and nothing is counted.
func TestCorruptArgValueIsDropped(t *testing.T) {
	w, _ := newTestWorker(t, 5)
	cl := &Closure{ID: types.TaskID{Worker: 5, Seq: 1}, Fn: "noop", Args: make([]types.Value, 1), Missing: 1}
	w.join.Put(cl)
	env := &wire.Envelope{Job: 1, From: 6, To: 5, Payload: wire.Arg{Cont: types.Continuation{Task: cl.ID}, Val: marker}}

	w.handle(throughWire(t, env, corruptMarkerKind(t)))
	if cl.Missing != 1 || cl.Args[0] != nil || w.dq.Len() != 0 {
		t.Errorf("corrupt Arg was delivered: missing %d, slot %v, deque %d", cl.Missing, cl.Args[0], w.dq.Len())
	}
	if s := w.foldedStats(); s.Synchronizations != 0 || s.Orphans != 0 {
		t.Errorf("corrupt Arg was counted: %d synchs, %d orphans", s.Synchronizations, s.Orphans)
	}
	// The same frame undamaged fills the slot.
	w.handle(throughWire(t, env, nil))
	if cl.Missing != 0 || cl.Args[0] != types.Value(marker) || w.dq.Len() != 1 {
		t.Errorf("intact Arg not delivered: missing %d, slot %v, deque %d", cl.Missing, cl.Args[0], w.dq.Len())
	}
}

// A root result no datagram can carry is a permanent failure of that one
// send, not a clearinghouse outage: no re-register loop, nothing parked
// for retry, and one line to the clearinghouse that says why the job will
// not finish.
func TestResultTooLargeForUDPIsPermanent(t *testing.T) {
	chConn, err := phishnet.ListenUDP(1, types.ClearinghouseID, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer chConn.Close()
	wConn, err := phishnet.ListenUDP(1, 5, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wConn.Close()
	wConn.SetPeer(types.ClearinghouseID, chConn.LocalAddr())
	chConn.SetPeer(5, wConn.LocalAddr())
	w := NewWorker(1, 5, NewProgram("internal"), wConn, DefaultConfig(), clock.System)
	w.registered = true

	root := types.Continuation{Task: types.TaskID{Worker: types.ClearinghouseID, Seq: 1}}
	w.deliver(root, make([]byte, 100_000), false, wire.TraceCtx{})
	w.retryUnsent(true)
	w.chNextTry = time.Time{} // a re-register, if armed, is due now
	w.maybeReRegister()

	if w.chDown || w.Stats().ReRegistrations != 0 {
		t.Errorf("oversized result started the re-register loop: chDown %v, %d re-registrations",
			w.chDown, w.Stats().ReRegistrations)
	}
	if len(w.unsent) != 0 || w.rootResult != nil {
		t.Errorf("oversized result kept for retry: %d unsent, root result retained: %v", len(w.unsent), w.rootResult != nil)
	}
	select {
	case env := <-chConn.Recv():
		if err := env.Materialize(); err != nil {
			t.Fatal(err)
		}
		io, ok := env.Payload.(wire.IO)
		if !ok {
			t.Fatalf("clearinghouse received %s, want the IO line", env.PayloadName())
		}
		for _, want := range []string{root.Task.String(), "bytes encoded", "65507"} {
			if !strings.Contains(io.Text, want) {
				t.Errorf("IO line %q does not name %q", io.Text, want)
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no IO line reached the clearinghouse")
	}
	select {
	case env := <-chConn.Recv():
		t.Errorf("a second message reached the clearinghouse: %s", env.PayloadName())
	case <-time.After(50 * time.Millisecond):
	}
}
