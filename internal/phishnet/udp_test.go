package phishnet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

// TestUDPFlushTimerStress hammers the batcher from many goroutines so
// flush-timer callbacks constantly overlap re-arming. Before the
// generation-counter guard, armLocked Reset a shared timer that could be
// mid-fire: the stale callback would flush a batch that a newer arming
// owned, or swallow the fire the Reset counted on. Run under -race this
// doubles as the data-race regression for that pattern.
func TestUDPFlushTimerStress(t *testing.T) {
	a, err := ListenUDP(1, 1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP(1, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeer(2, b.LocalAddr())
	b.SetPeer(1, a.LocalAddr())

	const senders = 8
	const perSender = 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				env := &wire.Envelope{To: 2, Payload: wire.Heartbeat{
					Worker: types.WorkerID(s*perSender + i),
				}}
				if err := a.Send(env); err != nil {
					t.Error(err)
					return
				}
				if i%16 == 0 {
					// Let flush timers fire mid-stream so arming and
					// callbacks interleave instead of one giant batch.
					time.Sleep(udpFlushDelay)
				}
			}
		}(s)
	}
	wg.Wait()

	// Every message must arrive exactly once: a lost flush would stall a
	// tail of the stream until retransmit (or forever for untracked
	// sends), and a double flush would trip the dedup window accounting.
	seen := make(map[types.WorkerID]bool)
	deadline := time.After(10 * time.Second)
	for len(seen) < senders*perSender {
		select {
		case env := <-b.Recv():
			if err := env.Materialize(); err != nil {
				t.Fatal(err)
			}
			hb, ok := env.Payload.(wire.Heartbeat)
			if !ok {
				t.Fatalf("payload = %T", env.Payload)
			}
			if seen[hb.Worker] {
				t.Fatalf("worker %d delivered twice", hb.Worker)
			}
			seen[hb.Worker] = true
			env.Free()
		case <-deadline:
			t.Fatalf("received %d/%d messages", len(seen), senders*perSender)
		}
	}
}

// TestUDPViewArenaRecycling drives enough batched traffic through the
// zero-copy receive path that arenas and views must recycle through their
// pools many times over, with consumers freeing some views, materializing
// others, and holding a few across subsequent datagrams. Any refcount slip
// shows up as cross-talk: a held view's fields changing when its arena is
// wrongly recycled under later traffic.
func TestUDPViewArenaRecycling(t *testing.T) {
	a, err := ListenUDP(1, 1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP(1, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeer(2, b.LocalAddr())
	b.SetPeer(1, a.LocalAddr())

	const n = 600
	go func() {
		for i := 0; i < n; i++ {
			_ = a.Send(&wire.Envelope{To: 2, Payload: wire.StealReply{
				OK: true,
				Task: wire.Closure{
					ID:   types.TaskID{Worker: 1, Seq: uint64(i)},
					Fn:   "pfold",
					Args: []types.Value{int64(i), "payload-string"},
				},
			}})
		}
	}()

	type held struct {
		env *wire.Envelope
		seq uint64
	}
	var holds []held
	got := 0
	deadline := time.After(10 * time.Second)
	for got < n {
		select {
		case env := <-b.Recv():
			v, ok := env.Payload.(*wire.View)
			if !ok {
				t.Fatalf("payload = %T", env.Payload)
			}
			sr, ok := v.AsStealReply()
			if !ok || !sr.OK() {
				t.Fatalf("bad steal reply view (ok=%v)", ok)
			}
			cl := sr.Task()
			seq := cl.ID().Seq
			if fn := cl.Fn(); fn != "pfold" {
				t.Fatalf("fn = %q", fn)
			}
			switch got % 3 {
			case 0:
				env.Free()
			case 1:
				if err := env.Materialize(); err != nil {
					t.Fatal(err)
				}
				task := env.Payload.(wire.StealReply).Task
				if task.ID.Seq != seq || task.Args[1].(types.Value) != types.Value("payload-string") {
					t.Fatalf("materialized closure corrupted: %+v", task)
				}
				env.Free()
			case 2:
				holds = append(holds, held{env, seq}) // outlive later datagrams
			}
			got++
		case <-deadline:
			t.Fatalf("received %d/%d", got, n)
		}
	}
	for _, h := range holds {
		sr, ok := h.env.Payload.(*wire.View).AsStealReply()
		if !ok {
			t.Fatal("held view lost its shape")
		}
		if cl := sr.Task(); cl.ID().Seq != h.seq || cl.Fn() != "pfold" {
			t.Fatalf("held view mutated: seq %d -> %d fn %q", h.seq, cl.ID().Seq, cl.Fn())
		}
		h.env.Free()
	}
}

// TestAdaptiveRetransmitRTO: the per-peer RTT track stretches the first
// retransmit interval for slow peers but never shrinks it below the
// configured base, stays silent until warm, and resets on DropPeer.
func TestAdaptiveRetransmitRTO(t *testing.T) {
	u, err := ListenUDP(1, 1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	const peer = types.WorkerID(2)

	rto := func() time.Duration {
		u.mu.Lock()
		defer u.mu.Unlock()
		return u.rtoLocked(peer)
	}
	feed := func(d time.Duration, n int) {
		u.mu.Lock()
		defer u.mu.Unlock()
		r := u.rtt[peer]
		if r == nil {
			r = &peerRTT{}
			u.rtt[peer] = r
		}
		for i := 0; i < n; i++ {
			r.observe(d)
		}
	}

	if got := rto(); got != u.retxBase {
		t.Fatalf("cold-peer RTO = %v, want base %v", got, u.retxBase)
	}
	// Below warmup the track is ignored even if samples exist.
	feed(300*time.Millisecond, rttMinSamples-1)
	if got := rto(); got != u.retxBase {
		t.Fatalf("under-warm RTO = %v, want base %v", got, u.retxBase)
	}
	// Warm and slow: RTO follows ew + 4*dev, above the base.
	feed(300*time.Millisecond, 8)
	if got := rto(); got <= u.retxBase {
		t.Fatalf("slow-peer RTO = %v, want > base %v", got, u.retxBase)
	} else if got > u.retxCap {
		t.Fatalf("slow-peer RTO = %v exceeds cap %v", got, u.retxCap)
	}
	// A fast peer is floored at the base: adaptivity never turns the
	// transport more aggressive than configured.
	u.DropPeer(peer)
	feed(200*time.Microsecond, 8)
	if got := rto(); got != u.retxBase {
		t.Fatalf("fast-peer RTO = %v, want base floor %v", got, u.retxBase)
	}
	// Huge RTTs are capped.
	u.DropPeer(peer)
	feed(time.Hour, 8)
	if got := rto(); got != u.retxCap {
		t.Fatalf("huge-RTT RTO = %v, want cap %v", got, u.retxCap)
	}
}

// TestRTTMeasuredAtAck: a real request/ack round trip on the loopback
// populates the sender's RTT track for the peer (Karn-filtered to
// unretransmitted frames).
func TestRTTMeasuredAtAck(t *testing.T) {
	a, err := ListenUDP(1, 1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP(1, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeer(2, b.LocalAddr())
	b.SetPeer(1, a.LocalAddr())

	for i := 0; i < 6; i++ {
		if err := a.Send(&wire.Envelope{To: 2, Payload: wire.Heartbeat{Worker: 1}}); err != nil {
			t.Fatal(err)
		}
		select {
		case env := <-b.Recv():
			env.Free()
		case <-time.After(5 * time.Second):
			t.Fatal("datagram never arrived")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.mu.Lock()
		r := a.rtt[2]
		n := int64(0)
		if r != nil {
			n = r.n
		}
		a.mu.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no RTT sample recorded after acked sends")
		}
		time.Sleep(time.Millisecond)
	}
}

// An envelope no datagram can carry must be refused at Send, not tracked:
// every retransmit would fail at the socket, and the healthy peer would be
// declared gone ten silent failures later.
func TestUDPRefusesEnvelopeLargerThanADatagram(t *testing.T) {
	a, err := ListenUDP(1, 1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP(1, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeer(2, b.LocalAddr())
	b.SetPeer(1, a.LocalAddr())

	wide := make([]types.Value, 20000) // a flat 20 000-way join, ≈ 180 KB encoded
	for i := range wide {
		wide[i] = int64(i)
	}
	big := &wire.Envelope{To: 2, Payload: wire.StealReply{OK: true, Task: wire.Closure{Fn: "sum", Args: wide}}}
	if err := a.Send(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Send of a %d-argument closure: err = %v, want ErrTooLarge", len(wide), err)
	}
	a.mu.Lock()
	pending := len(a.pending)
	a.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d frame(s) queued for retransmission after a refused send", pending)
	}
	// A frame past the batch cap but within one datagram still travels.
	fits := &wire.Envelope{To: 2, Payload: wire.StealReply{OK: true, Task: wire.Closure{Fn: "sum", Args: wide[:6900]}}}
	if err := a.Send(fits); err != nil {
		t.Fatalf("Send of a frame that fits one datagram: %v", err)
	}
	env := recvOne(t, b, 2*time.Second)
	if err := env.Materialize(); err != nil {
		t.Fatal(err)
	}
	if rep, ok := env.Payload.(wire.StealReply); !ok || len(rep.Task.Args) != 6900 {
		t.Errorf("payload = %T, want the 6900-argument steal reply", env.Payload)
	}
}
