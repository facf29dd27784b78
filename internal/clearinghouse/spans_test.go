package clearinghouse

import (
	"math"
	"testing"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

func spanReport(id types.WorkerID, seq uint64, n int) wire.StatReport {
	spans := make([]wire.Span, n)
	for i := range spans {
		spans[i] = wire.Span{Kind: wire.SpanExec, Worker: id,
			Task: types.TaskID{Worker: id, Seq: seq*100 + uint64(i)}}
	}
	return wire.StatReport{Worker: id, SpanSeq: seq, Spans: spans}
}

// TestSpanSinkResetWorker: the latest-batch cursor is per-incarnation
// state. A restarted worker numbers its batches from 1 again, so a reset
// must let low sequence numbers fold once more — while spans already
// collected from the previous incarnation stay.
func TestSpanSinkResetWorker(t *testing.T) {
	s := newSpanSink()
	rep := spanReport(1, 5, 3)
	s.fold(&rep)
	if got, _ := s.stats(); got != 3 {
		t.Fatalf("collected = %d, want 3", got)
	}
	stale := spanReport(1, 4, 2)
	s.fold(&stale)
	if got, _ := s.stats(); got != 3 {
		t.Fatalf("stale batch folded: collected = %d", got)
	}

	s.resetWorker(1)
	fresh := spanReport(1, 1, 2)
	s.fold(&fresh)
	if got, _ := s.stats(); got != 5 {
		t.Fatalf("post-restart batch 1 swallowed by stale cursor: collected = %d, want 5", got)
	}
	if s.perW[1].minHbDelta != math.MaxInt64 {
		t.Error("reset kept the previous incarnation's heartbeat-delay bound")
	}

	// Unknown worker: reset must not allocate state.
	s.resetWorker(99)
	if _, ok := s.perW[99]; ok {
		t.Error("resetWorker allocated state for an unseen worker")
	}
}

// TestSpanCursorResetsOnReRegister is the end-to-end restart regression:
// a worker folds span batches up to a high sequence, leaves, and a new
// incarnation re-registers under the same id with batch numbering
// restarted from 1. Before the re-registration reset, the collector's
// cursor from the first incarnation silently swallowed every batch of the
// second until its numbering passed the old high-water mark.
func TestSpanCursorResetsOnReRegister(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	w := h.attach(3)
	expect[wire.RegisterReply](t, w, time.Second)

	h.send(w, 3, spanReport(3, 40, 4))
	waitCollected(t, h, 4)

	// First incarnation departs; the id goes non-live.
	h.send(w, 3, wire.Unregister{Worker: 3, Reason: wire.LeaveReclaimed})

	// Second incarnation: re-register, then report batch 1.
	deadline := time.Now().Add(2 * time.Second)
	for len(h.ch.LiveWorkers()) > 0 { // 3 is the only worker
		if time.Now().After(deadline) {
			t.Fatal("worker 3 still live after Unregister")
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.send(w, 3, wire.Register{Worker: 3})
	expect[wire.RegisterReply](t, w, time.Second)
	h.send(w, 3, spanReport(3, 1, 5))
	waitCollected(t, h, 9)
}

// TestSpanCursorSurvivesRegisterRetry: a duplicate Register from a worker
// that never left must NOT reset the cursor — its recorder never
// restarted, so a replayed already-folded batch has to stay suppressed.
func TestSpanCursorSurvivesRegisterRetry(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	w := h.attach(5)
	expect[wire.RegisterReply](t, w, time.Second)

	h.send(w, 5, spanReport(5, 2, 4))
	waitCollected(t, h, 4)

	h.send(w, 5, wire.Register{Worker: 5}) // liveness-refresh retry
	expect[wire.RegisterReply](t, w, time.Second)
	h.send(w, 5, spanReport(5, 2, 4)) // retransmitted duplicate batch
	time.Sleep(50 * time.Millisecond)
	if got, _ := h.ch.SpanStats(); got != 4 {
		t.Fatalf("live-worker Register retry reset the cursor: collected = %d, want 4", got)
	}
}

func waitCollected(t *testing.T, h *chHarness, want uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got, _ := h.ch.SpanStats(); got == want {
			return
		}
		if time.Now().After(deadline) {
			got, _ := h.ch.SpanStats()
			t.Fatalf("collected spans = %d, want %d", got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
