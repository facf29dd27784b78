package phishnet

import (
	"sync"
	"testing"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

func recvOne(t *testing.T, c Conn, timeout time.Duration) *wire.Envelope {
	t.Helper()
	select {
	case env, ok := <-c.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		return env
	case <-time.After(timeout):
		t.Fatal("timed out waiting for a message")
		return nil
	}
}

func TestFabricDelivery(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a := f.Attach(1)
	b := f.Attach(2)
	if err := a.Send(&wire.Envelope{From: 1, To: 2, Payload: wire.StayRequest{Worker: 1}}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, b, time.Second)
	if env.From != 1 {
		t.Errorf("from = %d", env.From)
	}
}

func TestFabricUnknownPeer(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a := f.Attach(1)
	if err := a.Send(&wire.Envelope{To: 9}); err != ErrUnknownPeer {
		t.Errorf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestFabricClosedPortSendFails(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a := f.Attach(1)
	b := f.Attach(2)
	_ = b.Close()
	if err := a.Send(&wire.Envelope{To: 2}); err == nil {
		t.Error("send to closed port succeeded")
	}
}

func TestFabricOrderPreserved(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a := f.Attach(1)
	b := f.Attach(2)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := a.Send(&wire.Envelope{To: 2, Seq: uint64(i), Payload: wire.Ack{Seq: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		env := recvOne(t, b, time.Second)
		if env.Seq != uint64(i) {
			t.Fatalf("message %d arrived out of order (seq %d)", i, env.Seq)
		}
	}
}

func TestFabricUnboundedBuffering(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	a := f.Attach(1)
	b := f.Attach(2)
	// Nobody reads b while we send far beyond any channel buffer; sends
	// must not block (split-phase requirement).
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100000; i++ {
			_ = a.Send(&wire.Envelope{To: 2, Seq: uint64(i)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sender blocked; mailbox is not unbounded")
	}
	for i := 0; i < 100000; i++ {
		recvOne(t, b, time.Second)
	}
}

func TestFabricLatency(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	f.SetLatency(30 * time.Millisecond)
	a := f.Attach(1)
	b := f.Attach(2)
	start := time.Now()
	_ = a.Send(&wire.Envelope{To: 2})
	recvOne(t, b, time.Second)
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("message arrived after %v; latency not applied", d)
	}
	// Order must survive latency.
	for i := 0; i < 50; i++ {
		_ = a.Send(&wire.Envelope{To: 2, Seq: uint64(i), Payload: wire.Ack{Seq: uint64(i)}})
	}
	for i := 0; i < 50; i++ {
		env := recvOne(t, b, time.Second)
		if env.Seq != uint64(i) {
			t.Fatalf("latency pump reordered: got seq %d at position %d", env.Seq, i)
		}
	}
}

func TestUDPBasicExchange(t *testing.T) {
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

	if err := a.Send(&wire.Envelope{To: 2, Payload: wire.StayRequest{Worker: 1}}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, b, 2*time.Second)
	if env.From != 1 {
		t.Errorf("from = %d", env.From)
	}
	// A heartbeat is not read in place: it arrives as the owned struct.
	if sr, ok := env.Payload.(wire.StayRequest); !ok || sr.Worker != 1 {
		t.Errorf("heartbeat payload = %#v", env.Payload)
	}

	// Reply the other way: steal-path messages arrive as zero-copy views.
	if err := b.Send(&wire.Envelope{To: 1, Payload: wire.StealRequest{Thief: 2}}); err != nil {
		t.Fatal(err)
	}
	env = recvOne(t, a, 2*time.Second)
	v, ok := env.Payload.(*wire.View)
	if !ok {
		t.Fatalf("payload = %T, want *wire.View", env.Payload)
	}
	if sr, ok := v.AsStealRequest(); !ok || sr.Thief() != 2 {
		t.Errorf("steal-request view: ok=%v thief=%d", ok, sr.Thief())
	}
	env.Free()
}

func TestUDPManyMessagesNoDuplicates(t *testing.T) {
	a, _ := ListenUDP(1, 1, "127.0.0.1:0")
	defer a.Close()
	b, _ := ListenUDP(1, 2, "127.0.0.1:0")
	defer b.Close()
	a.SetPeer(2, b.LocalAddr())
	b.SetPeer(1, a.LocalAddr())

	const n = 500
	for i := 0; i < n; i++ {
		if err := a.Send(&wire.Envelope{To: 2, Payload: wire.Ack{}}); err != nil {
			t.Fatal(err)
		}
	}
	// wire.Ack payloads are transport-level and filtered; use StayRequests.
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		if err := a.Send(&wire.Envelope{To: 2, Payload: wire.StayRequest{Worker: types.WorkerID(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for len(seen) < n {
		select {
		case env, ok := <-b.Recv():
			if !ok {
				t.Fatal("closed early")
			}
			if seen[env.Seq] {
				t.Fatalf("duplicate seq %d delivered", env.Seq)
			}
			seen[env.Seq] = true
		case <-deadline:
			t.Fatalf("only %d/%d distinct messages after 10s", len(seen), n)
		}
	}
}

func TestUDPUnknownPeer(t *testing.T) {
	a, _ := ListenUDP(1, 1, "127.0.0.1:0")
	defer a.Close()
	if err := a.Send(&wire.Envelope{To: 42}); err != ErrUnknownPeer {
		t.Errorf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestUDPLearnsPeerFromInbound(t *testing.T) {
	a, _ := ListenUDP(1, 1, "127.0.0.1:0")
	defer a.Close()
	b, _ := ListenUDP(1, 2, "127.0.0.1:0")
	defer b.Close()
	// Only b knows a; a should learn b's address from the first inbound
	// datagram (how the clearinghouse learns its workers).
	b.SetPeer(1, a.LocalAddr())
	if err := b.Send(&wire.Envelope{To: 1, Payload: wire.Register{Worker: 2}}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, a, 2*time.Second)
	if err := a.Send(&wire.Envelope{To: 2, Payload: wire.RegisterReply{Assigned: 2}}); err != nil {
		t.Fatalf("reply to learned peer: %v", err)
	}
	env := recvOne(t, b, 2*time.Second)
	if _, ok := env.Payload.(wire.RegisterReply); !ok {
		t.Errorf("payload = %T", env.Payload)
	}
}

func TestDedupWindow(t *testing.T) {
	d := &dedupWindow{}
	if !d.add(1) || d.add(1) {
		t.Error("basic dedup broken")
	}
	// Fill far beyond the window; early entries may be forgotten but
	// recent ones must still deduplicate.
	for i := uint64(2); i < udpDedupWindow*2; i++ {
		if !d.add(i) {
			t.Fatalf("fresh seq %d rejected", i)
		}
	}
	recent := uint64(udpDedupWindow*2 - 5)
	if d.add(recent) {
		t.Errorf("recent seq %d not deduplicated", recent)
	}
	if len(d.seen) > udpDedupWindow {
		t.Errorf("dedup memory grew to %d entries; window is %d", len(d.seen), udpDedupWindow)
	}
}

func TestFabricLatencyFuncNoLoss(t *testing.T) {
	// Regression: messages routed through the latency pump must never be
	// lost, including under concurrent senders, mixed zero/nonzero
	// latencies, and receivers that appear one message at a time.
	f := NewFabric()
	defer f.Close()
	f.SetLatencyFunc(func(from, to types.WorkerID) time.Duration {
		if from >= 0 && to >= 0 && (from%2) != (to%2) {
			return 300 * time.Microsecond
		}
		return 0
	})
	const n = 6
	ports := make([]*Port, n)
	for i := range ports {
		ports[i] = f.Attach(types.WorkerID(i))
	}
	const perPair = 400
	var wg sync.WaitGroup
	for src := 0; src < n; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for k := 0; k < perPair; k++ {
				for dst := 0; dst < n; dst++ {
					if dst == src {
						continue
					}
					if err := ports[src].Send(&wire.Envelope{From: types.WorkerID(src), To: types.WorkerID(dst)}); err != nil {
						t.Errorf("send %d->%d: %v", src, dst, err)
						return
					}
				}
			}
		}(src)
	}
	wg.Wait()
	want := perPair * (n - 1)
	for dst := 0; dst < n; dst++ {
		for got := 0; got < want; got++ {
			select {
			case _, ok := <-ports[dst].Recv():
				if !ok {
					t.Fatalf("port %d closed early", dst)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("port %d: lost messages: got %d of %d", dst, got, want)
			}
		}
	}
}

func TestFabricLatencySurvivesPortChurn(t *testing.T) {
	// Delayed messages to ports that close mid-flight must be dropped
	// without wedging the pump, and later messages to live ports must
	// still arrive.
	f := NewFabric()
	defer f.Close()
	f.SetLatency(200 * time.Microsecond)
	a := f.Attach(1)
	b := f.Attach(2)
	c := f.Attach(3)
	for i := 0; i < 200; i++ {
		_ = a.Send(&wire.Envelope{From: 1, To: 2})
		_ = a.Send(&wire.Envelope{From: 1, To: 3})
		if i == 50 {
			_ = b.Close() // b vanishes with messages in the pump
		}
	}
	got := 0
	deadline := time.After(5 * time.Second)
	for got < 200 {
		select {
		case _, ok := <-c.Recv():
			if !ok {
				t.Fatal("live port closed")
			}
			got++
		case <-deadline:
			t.Fatalf("live port received %d of 200 after churn", got)
		}
	}
}
