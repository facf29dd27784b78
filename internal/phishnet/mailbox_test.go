package phishnet

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

// poll is a non-blocking receive: what a spinning thief does.
func poll(m *mailbox) (*wire.Envelope, bool) {
	select {
	case env, ok := <-m.out:
		return env, ok
	default:
		return nil, false
	}
}

func TestMailboxPollSeesPutWithoutHandOff(t *testing.T) {
	m := newMailbox()
	defer m.close()
	// No goroutine switch between put and poll: the envelope must already
	// be in the receive channel.
	for i := 0; i < 3*mailboxFast; i++ {
		if !m.put(&wire.Envelope{Seq: uint64(i)}) {
			t.Fatal("put on an open mailbox failed")
		}
		env, ok := poll(m)
		if !ok || env.Seq != uint64(i) {
			t.Fatalf("poll after put %d = %v, %v", i, env, ok)
		}
	}
}

func TestMailboxFIFOAcrossOverflow(t *testing.T) {
	m := newMailbox()
	defer m.close()
	// Fill the channel, run well into the overflow list, and keep putting
	// while the receiver drains, so envelopes take the fast path, the
	// overflow path, and the fast path again after the spill ends.
	const first, second = 4 * mailboxFast, 2 * mailboxFast
	for i := 0; i < first; i++ {
		m.put(&wire.Envelope{Seq: uint64(i)})
	}
	if got := m.depthHighWater(); got < first-1 || got > first {
		t.Errorf("high-water mark = %d after %d unread puts", got, first)
	}
	next := uint64(0)
	recv := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case env := <-m.out:
				if env.Seq != next {
					t.Fatalf("received seq %d, want %d", env.Seq, next)
				}
				next++
			case <-time.After(5 * time.Second):
				t.Fatalf("stalled after %d envelopes", next)
			}
		}
	}
	recv(first / 2)
	for i := first; i < first+second; i++ {
		m.put(&wire.Envelope{Seq: uint64(i)})
	}
	recv(first/2 + second)
	// Drained: the spill goroutine has nothing left and the next put is
	// one hop again.
	waitFor(t, func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return !m.spilling
	})
	m.put(&wire.Envelope{Seq: next})
	if env, ok := poll(m); !ok || env.Seq != next {
		t.Fatalf("fast path not restored after overflow: %v, %v", env, ok)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		runtime.Gosched()
	}
}

func TestMailboxPutAfterClose(t *testing.T) {
	m := newMailbox()
	m.close()
	m.close() // idempotent
	if m.put(&wire.Envelope{}) {
		t.Error("put on a closed mailbox reported success")
	}
	if _, ok := <-m.out; ok {
		t.Error("closed empty mailbox delivered an envelope")
	}
}

func TestMailboxCloseDeliversChannelBacklog(t *testing.T) {
	m := newMailbox()
	for i := 0; i < mailboxFast/2; i++ {
		m.put(&wire.Envelope{Seq: uint64(i)})
	}
	m.close()
	n := 0
	for env := range m.out {
		if env.Seq != uint64(n) {
			t.Fatalf("backlog seq %d, want %d", env.Seq, n)
		}
		n++
	}
	if n != mailboxFast/2 {
		t.Errorf("delivered %d of %d backlogged envelopes before closing", n, mailboxFast/2)
	}
}

func TestMailboxCloseDuringOverflow(t *testing.T) {
	m := newMailbox()
	const total = 3 * mailboxFast
	for i := 0; i < total; i++ {
		m.put(&wire.Envelope{Seq: uint64(i)})
	}
	m.close()
	// The channel's share is delivered in order, the overflow list may be
	// abandoned, and the channel must close either way.
	got := 0
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case env, ok := <-m.out:
			if !ok {
				open = false
				break
			}
			if env.Seq != uint64(got) {
				t.Fatalf("seq %d after close, want %d", env.Seq, got)
			}
			got++
		case <-deadline:
			t.Fatal("Recv channel never closed after close during a backlog")
		}
	}
	if got < mailboxFast || got > total {
		t.Errorf("delivered %d envelopes, want between %d and %d", got, mailboxFast, total)
	}
}

func TestMailboxLeavesNoGoroutine(t *testing.T) {
	settled := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(time.Millisecond)
			if m := runtime.NumGoroutine(); m < n {
				n = m
			}
		}
		return n
	}
	before := settled()
	f := NewFabric()
	defer f.Close()
	hub := f.Attach(1)
	for i := 0; i < 1000; i++ {
		id := types.WorkerID(10 + i)
		p := f.Attach(id)
		// Every tenth port is pushed into overflow first, so the on-demand
		// spill goroutine is part of what must be gone.
		n := 3
		if i%10 == 0 {
			n = 2 * mailboxFast
		}
		for j := 0; j < n; j++ {
			if err := hub.Send(&wire.Envelope{From: 1, To: id}); err != nil {
				t.Fatal(err)
			}
		}
		_ = p.Close()
	}
	if after := settled(); after > before {
		t.Errorf("goroutines: %d before, %d after 1000 attach/close cycles", before, after)
	}
}

func TestMailboxManySendersOneReceiver(t *testing.T) {
	const senders, each = 8, 5000
	m := newMailbox()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if !m.put(&wire.Envelope{From: types.WorkerID(s), Seq: uint64(i)}) {
					t.Error("put failed on an open mailbox")
					return
				}
			}
		}(s)
	}
	// Per-sender order is the contract; senders interleave freely.
	next := make([]uint64, senders)
	for n := 0; n < senders*each; n++ {
		var env *wire.Envelope
		if n%3 == 0 {
			// Mix polls with blocking receives, as a worker does.
			env, _ = poll(m)
		}
		if env == nil {
			select {
			case env = <-m.out:
			case <-time.After(10 * time.Second):
				t.Fatalf("stalled after %d envelopes", n)
			}
		}
		if env.Seq != next[env.From] {
			t.Fatalf("sender %d: seq %d, want %d", env.From, env.Seq, next[env.From])
		}
		next[env.From]++
	}
	wg.Wait()
	m.close()
	if _, ok := <-m.out; ok {
		t.Error("envelope delivered beyond what was sent")
	}
	if hw := m.depthHighWater(); hw < 1 || hw > senders*each {
		t.Errorf("high-water mark %d out of range", hw)
	}
}

// BenchmarkMailboxPutPoll is the inbox's share of a message hop: one put
// and the non-blocking receive that finds it.
func BenchmarkMailboxPutPoll(b *testing.B) {
	m := newMailbox()
	defer m.close()
	env := &wire.Envelope{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.put(env)
		if _, ok := poll(m); !ok {
			b.Fatal("poll missed the envelope")
		}
	}
}
