package phishnet

import (
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"phish/internal/stats"
	"phish/internal/types"
	"phish/internal/wire"
)

// TestUDPFlushTimerStress hammers the batcher from many goroutines so the
// backstop timer's callback constantly overlaps re-arming: one timer,
// Reset under the endpoint's lock by whichever Send finds it disarmed,
// while its callback may be mid-flight on another thread. A lost fire
// would strand a tail of the stream until retransmit; a flush of the wrong
// bytes would deliver twice. Run under -race this doubles as the data-race
// regression for that pattern.
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
				env := &wire.Envelope{To: 2, Payload: wire.StayRequest{
					Worker: types.WorkerID(s*perSender + i),
				}}
				if err := a.Send(env); err != nil {
					t.Error(err)
					return
				}
				if i%16 == 0 {
					// Let flush timers fire mid-stream so arming and
					// callbacks interleave instead of one giant batch.
					time.Sleep(udpFlushBackstop)
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
			sr, ok := env.Payload.(wire.StayRequest)
			if !ok {
				t.Fatalf("payload = %T", env.Payload)
			}
			if seen[sr.Worker] {
				t.Fatalf("worker %d delivered twice", sr.Worker)
			}
			seen[sr.Worker] = true
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
		if err := a.Send(&wire.Envelope{To: 2, Payload: wire.StayRequest{Worker: 1}}); err != nil {
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

// A stamped StatReport is a worker's heartbeat, tracked like any message so
// that a dead clearinghouse is found when its retransmits run out; an
// unstamped one is soft state the next report supersedes, never
// retransmitted.
func TestUDPTracksOnlyStampedReports(t *testing.T) {
	a, err := ListenUDP(1, 1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	gone, err := ListenUDP(1, types.ClearinghouseID, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeer(types.ClearinghouseID, gone.LocalAddr())
	gone.Close() // nothing acks
	for i, tc := range []struct {
		sendNS  int64
		tracked int // frames awaiting an ack after this report
	}{{0, 0}, {time.Now().UnixNano(), 1}, {0, 1}} {
		env := &wire.Envelope{To: types.ClearinghouseID, Payload: wire.StatReport{Worker: 1, SendNS: tc.sendNS}}
		if err := a.Send(env); err != nil {
			t.Fatal(err)
		}
		a.mu.Lock()
		tracked := len(a.pending)
		a.mu.Unlock()
		if tracked != tc.tracked {
			t.Errorf("after report %d (SendNS %d): %d tracked, want %d", i, tc.sendNS, tracked, tc.tracked)
		}
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

// udpPair opens two endpoints on the loopback, 1 and 2, that know each
// other.
func udpPair(t *testing.T) (a, b *UDP) {
	t.Helper()
	var err error
	if a, err = ListenUDP(1, 1, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if b, err = ListenUDP(1, 2, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a.SetPeer(2, b.LocalAddr())
	b.SetPeer(1, a.LocalAddr())
	return a, b
}

// own makes the test the endpoint's owner, as a worker's Run does: the
// reader goroutine ends and the socket is read by whoever calls Poll.
func own(t *testing.T, u *UDP) {
	t.Helper()
	if !u.Poll(0) {
		t.Skip("this platform has no socket read that cannot block")
	}
}

// awaitPeerGone waits up to timeout for the wire.PeerGone envelope u posts
// to its own inbox when it gives up on a peer — the message an owner's
// receive loop learns of the death by — and returns the peer it names; ok
// is false if none came. Any other message on the way fails the test.
func awaitPeerGone(t *testing.T, u *UDP, timeout time.Duration) (id types.WorkerID, ok bool) {
	t.Helper()
	var env *wire.Envelope
	select {
	case env = <-u.Recv(): // one already there wins over a zero timeout
	default:
		select {
		case env = <-u.Recv():
		case <-time.After(timeout):
			return types.NoWorker, false
		}
	}
	if env == nil {
		t.Fatal("recv channel closed")
	}
	p, gone := env.Payload.(wire.PeerGone)
	if !gone {
		t.Fatalf("got %s while waiting for PeerGone", env.PayloadName())
	}
	return p.Worker, true
}

// recvOwned is recvOne for an endpoint the test owns: it reads the socket
// itself, waiting on it a millisecond at a time.
func recvOwned(t *testing.T, u *UDP, timeout time.Duration) *wire.Envelope {
	t.Helper()
	for deadline := time.Now().Add(timeout); ; {
		select {
		case env, ok := <-u.Recv():
			if !ok {
				t.Fatal("recv channel closed")
			}
			return env
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for a message")
		}
		u.Poll(time.Millisecond)
	}
}

// countDatagrams cuts u off from peer and counts what u would have put on
// the wire for it: with the pair isolated every datagram is judged, dropped
// and logged.
func countDatagrams(u *UDP, peer types.WorkerID) func() int {
	fl := NewFaults(FaultPlan{Seed: 1})
	fl.RecordDrops(true)
	fl.Isolate(peer)
	u.SetFaults(fl)
	return func() int { return len(fl.Drops()) }
}

// A steal request and its reply are urgent: each leaves in its own Send, so
// a round trip between two endpoints that block on Recv involves no timer.
// The flush timer this replaces fired 1.03 ms late at best, twice a round
// trip.
func TestUDPStealRoundTripNeedsNoTimer(t *testing.T) {
	if raceEnabled {
		t.Skip("a latency bound; the race detector's slowdown is not the subject")
	}
	a, b := udpPair(t)
	go func() {
		for env := range b.Recv() {
			env.Free()
			_ = b.Send(&wire.Envelope{To: 1, Payload: wire.StealReply{}})
		}
	}()
	const rounds = 400
	rtts := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := a.Send(&wire.Envelope{To: 2, Payload: wire.StealRequest{Thief: 1}}); err != nil {
			t.Fatal(err)
		}
		recvOne(t, a, 2*time.Second).Free()
		rtts = append(rtts, time.Since(t0))
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	if p50 := rtts[rounds/2]; p50 >= 500*time.Microsecond {
		t.Errorf("steal round trip p50 = %v over %d rounds, want under 500µs: something on the path waits for a timer", p50, rounds)
	}
}

// What a thief sends between two steals — the confirm, the stolen task's
// result, the next request — leaves as one datagram, carried out by the
// request; frames nobody flushes leave on the backstop, together, once.
func TestUDPIdleEdgeCoalesces(t *testing.T) {
	arg := wire.Arg{Cont: types.Continuation{Task: types.TaskID{Worker: 2, Seq: 1}}, Val: int64(7)}
	newSender := func(t *testing.T) (*UDP, func() int) {
		a, _ := udpPair(t)
		a.SetRetransmit(5*time.Second, 5*time.Second, 1) // no retransmit inside this test
		return a, countDatagrams(a, 2)
	}
	send := func(t *testing.T, a *UDP, payload any) {
		t.Helper()
		if err := a.Send(&wire.Envelope{To: 2, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("urgent", func(t *testing.T) {
		a, sent := newSender(t)
		send(t, a, wire.StealConfirm{Record: types.TaskID{Worker: 2, Seq: 9}})
		send(t, a, arg)
		if n := sent(); n != 0 {
			t.Fatalf("%d datagram(s) left before anything urgent was sent", n)
		}
		send(t, a, wire.StealRequest{Thief: 1})
		if n := sent(); n != 1 {
			t.Fatalf("confirm, arg and request left as %d datagrams, want 1", n)
		}
		time.Sleep(5 * udpFlushBackstop)
		if n := sent(); n != 1 {
			t.Errorf("the backstop sent %d more datagram(s) over empty batches", n-1)
		}
	})
	t.Run("flush", func(t *testing.T) {
		a, sent := newSender(t)
		send(t, a, arg)
		send(t, a, arg)
		a.Flush()
		if n := sent(); n != 1 {
			t.Fatalf("two args and a Flush left as %d datagrams, want 1", n)
		}
		a.Flush()
		if n := sent(); n != 1 {
			t.Errorf("a Flush with nothing batched sent %d datagram(s)", n-1)
		}
	})
	t.Run("backstop", func(t *testing.T) {
		a, sent := newSender(t)
		for i := 0; i < 3; i++ {
			send(t, a, arg)
		}
		if n := sent(); n != 0 {
			t.Fatalf("%d datagram(s) left at once with nothing urgent and no Flush", n)
		}
		for deadline := time.Now().Add(2 * time.Second); sent() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("the backstop never flushed three batched args")
			}
			time.Sleep(udpFlushBackstop / 4)
		}
		time.Sleep(5 * udpFlushBackstop)
		if n := sent(); n != 1 {
			t.Errorf("three args left on the backstop as %d datagrams, want 1", n)
		}
	})
}

// An owner that polls and then goes deaf (a long task body that never
// yields) still acknowledges: the retransmit tick reads its socket, so its
// peers neither retransmit nor give up on it, and everything is there, once
// and in order, when it looks again.
func TestUDPDeafOwnerStillAcks(t *testing.T) {
	a, b := udpPair(t)
	own(t, b)
	var c stats.Counters
	a.Instrument(&c, nil, nil)

	const n = 40
	for i := 0; i < n; i++ {
		if err := a.Send(&wire.Envelope{To: 2, Payload: wire.StayRequest{Worker: types.WorkerID(i)}}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(300 * time.Millisecond / n) // b is deaf throughout
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		a.mu.Lock()
		unacked := len(a.pending)
		a.mu.Unlock()
		if unacked == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d frame(s) still unacknowledged by a deaf owner", unacked)
		}
	}
	if got := c.Retransmits.Load(); got != 0 {
		t.Errorf("%d retransmit(s) to an owner that was only deaf", got)
	}
	if id, ok := awaitPeerGone(t, a, 0); ok {
		t.Errorf("peer %d declared gone while its owner was deaf", id)
	}
	for i := 0; i < n; i++ {
		env := recvOwned(t, b, 2*time.Second)
		if err := env.Materialize(); err != nil {
			t.Fatal(err)
		}
		if sr := env.Payload.(wire.StayRequest); sr.Worker != types.WorkerID(i) {
			t.Fatalf("message %d carries %d: the backstop reader reordered or repeated", i, sr.Worker)
		}
	}
}

// Two readers on one socket — the owner polling flat out and the retransmit
// tick's backstop — deliver every frame once: a datagram goes to one of
// them, whole, and the dedup window they share absorbs the duplicates the
// fault plan injects.
func TestUDPOwnerAndBackstopReadOneSocket(t *testing.T) {
	a, b := udpPair(t)
	own(t, b)
	b.SetRetransmit(4*time.Millisecond, 50*time.Millisecond, 50) // a 1 ms tick: the backstop reads often
	a.SetFaults(NewFaults(FaultPlan{Seed: 5, Duplicate: 0.3}))

	const n = 3000
	go func() {
		for i := 0; i < n; i++ {
			_ = a.Send(&wire.Envelope{To: 2, Payload: wire.StayRequest{Worker: types.WorkerID(i)}})
			if i%8 == 7 {
				a.Flush()
			}
		}
		a.Flush()
	}()
	seen := make([]bool, n)
	for got, deadline := 0, time.Now().Add(20*time.Second); got < n; {
		b.Poll(0)
		select {
		case env := <-b.Recv():
			if err := env.Materialize(); err != nil {
				t.Fatal(err)
			}
			i := int(env.Payload.(wire.StayRequest).Worker)
			if seen[i] {
				t.Fatalf("message %d delivered twice", i)
			}
			seen[i] = true
			got++
		default:
			if time.Now().After(deadline) {
				t.Fatalf("received %d/%d", got, n)
			}
		}
	}
	time.Sleep(20 * time.Millisecond) // late duplicates, if any got past the window
	b.Poll(0)
	select {
	case env := <-b.Recv():
		t.Fatalf("a duplicate of seq %d was delivered after the stream", env.Seq)
	default:
	}
}

// A dedup window lives as long as its peer: DropPeer takes it away, so an
// endpoint that outlives a thousand peers (a clearinghouse under worker
// churn) holds windows for the live ones only, and a window costs what the
// peer sent, not a full ring.
func TestUDPDedupWindowsFollowPeers(t *testing.T) {
	ch, err := ListenUDP(1, types.ClearinghouseID, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	windows := func() (n, entries int) {
		ch.mu.Lock()
		defer ch.mu.Unlock()
		for _, w := range ch.seen {
			entries += cap(w.ring)
		}
		return len(ch.seen), entries
	}
	const peers, live = 1000, 3
	var keep []*UDP
	for i := 0; i < peers; i++ {
		id := types.WorkerID(i + 1)
		p, err := ListenUDP(1, id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p.SetPeer(types.ClearinghouseID, ch.LocalAddr())
		if err := p.Send(&wire.Envelope{To: types.ClearinghouseID, Payload: wire.StayRequest{Worker: id}}); err != nil {
			t.Fatal(err)
		}
		p.Flush()
		recvOne(t, ch, 2*time.Second).Free()
		if i < live {
			keep = append(keep, p)
			continue
		}
		ch.DropPeer(id)
		p.Close()
	}
	n, entries := windows()
	if n != live {
		t.Errorf("%d dedup windows after %d peers came and went, want the %d live ones", n, peers-live, live)
	}
	if entries > live*64 {
		t.Errorf("%d live peers that sent one frame each hold %d ring entries", live, entries)
	}
	for _, p := range keep {
		p.Close()
	}
}

// TestUDPSpanSinkSeesRetransmits: with frames to one peer dropped, the
// owner's span sink gets one SpanRetransmit per re-sent frame, naming that
// peer, as many as the Retransmits counter counts; a healthy peer's frames
// make none. A nil sink records nothing and the counter still counts.
func TestUDPSpanSinkSeesRetransmits(t *testing.T) {
	for _, withSink := range []bool{true, false} {
		name := "nil-sink"
		if withSink {
			name = "sink"
		}
		t.Run(name, func(t *testing.T) {
			a, _ := udpPair(t)
			c, err := ListenUDP(1, 3, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			a.SetPeer(3, c.LocalAddr())
			c.SetPeer(1, a.LocalAddr())
			const tries = 3
			a.SetRetransmit(20*time.Millisecond, 100*time.Millisecond, tries)

			var counters stats.Counters
			var mu sync.Mutex
			var spans []wire.Span
			var sink func(wire.Span)
			if withSink {
				sink = func(sp wire.Span) {
					mu.Lock()
					spans = append(spans, sp)
					mu.Unlock()
				}
			}
			a.Instrument(&counters, nil, sink)

			// The healthy peer acknowledges before the faults start.
			if err := a.Send(&wire.Envelope{To: 3, Payload: wire.StayRequest{Worker: 1}}); err != nil {
				t.Fatal(err)
			}
			recvOne(t, c, 2*time.Second)
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
				a.mu.Lock()
				unacked := len(a.pending)
				a.mu.Unlock()
				if unacked == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the healthy peer never acknowledged")
				}
			}

			fl := NewFaults(FaultPlan{Seed: 7})
			fl.Isolate(2) // every datagram a→2 vanishes
			a.SetFaults(fl)
			for i := 0; i < 2; i++ {
				if err := a.Send(&wire.Envelope{To: 2, Payload: wire.StayRequest{Worker: 1}}); err != nil {
					t.Fatal(err)
				}
			}
			a.Flush()
			// The sink ran before the report, on the same tick.
			if _, ok := awaitPeerGone(t, a, 10*time.Second); !ok {
				t.Fatal("retransmits never gave up")
			}

			mu.Lock()
			defer mu.Unlock()
			retx := counters.Retransmits.Load()
			if retx < tries {
				t.Fatalf("%d retransmits counted, want at least %d", retx, tries)
			}
			if !withSink {
				return
			}
			if int64(len(spans)) != retx {
				t.Errorf("sink got %d spans, counter says %d retransmits", len(spans), retx)
			}
			for _, sp := range spans {
				if sp.Kind != wire.SpanRetransmit || sp.Worker != 1 || sp.Peer != 2 || sp.Start == 0 || sp.End != sp.Start {
					t.Errorf("span %+v, want a point SpanRetransmit by w1 to w2", sp)
				}
			}
		})
	}
}

// A peer that restarts on its predecessor's address — a clearinghouse
// resumed from its journal on a pinned -ch-addr — must not have its first
// frames swallowed by the dedup window its predecessor left behind: every
// incarnation numbers its frames from a random start.
func TestUDPRestartedPeerIsNotDeduplicated(t *testing.T) {
	a, b := udpPair(t)
	addr := a.LocalAddr()
	const n = 5
	send := func(u *UDP, first int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := u.Send(&wire.Envelope{To: 2, Payload: wire.StayRequest{Worker: types.WorkerID(first + i)}}); err != nil {
				t.Fatal(err)
			}
			got := recvOne(t, b, 2*time.Second).Payload.(wire.StayRequest).Worker
			if got != types.WorkerID(first+i) {
				t.Fatalf("b got message %d, want %d", got, first+i)
			}
		}
	}
	send(a, 0)
	a.Close()
	a2, err := ListenUDP(1, 1, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a2.Close() })
	a2.SetPeer(2, b.LocalAddr())
	send(a2, n)
}
