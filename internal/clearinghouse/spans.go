package clearinghouse

import (
	"math"

	"phish/internal/types"
	"phish/internal/wire"
)

// maxSpansPerWorker bounds retained spans per worker; past it spans are
// dropped and counted. At 62 wire bytes a span, it caps a worker's share
// of the collector at roughly 16 MB of span structs — generous for a
// benchmark run, bounded for a long-lived job.
const maxSpansPerWorker = 1 << 18

// workerSpans is the collector's per-worker state: the latest folded batch
// number (the idempotence cursor of the latest-batch framing), the
// worker's self-reported clock offset, the tightest heartbeat one-way
// delay observed (an upper bound on the true offset), and the retained
// spans, still on the worker's local clock.
type workerSpans struct {
	lastSeq    uint64
	offNS      int64
	minHbDelta int64
	spans      []wire.Span
}

// spanSink is the clearinghouse-side trace collector. Workers ship span
// batches piggybacked on StatReports; the sink folds a batch only when its
// sequence number advances past the last one folded for that worker, so
// retransmitted, duplicated, or reordered reports never double-count.
//
// Span timestamps arrive on each worker's local clock. The sink aligns
// them onto the clearinghouse clock using, per worker, the smaller of the
// worker's own NTP-style registration estimate and the tightest heartbeat
// one-way delay (clearinghouse receive time minus the heartbeat's send
// stamp): the delay is offset plus nonnegative network latency, so it
// bounds the true offset from above and clamps a registration estimate
// skewed by an asymmetric round trip.
//
// The sink has no lock of its own: the clearinghouse calls it under its job
// lock.
type spanSink struct {
	perW    map[types.WorkerID]*workerSpans
	total   uint64
	dropped uint64
}

func newSpanSink() *spanSink {
	return &spanSink{perW: make(map[types.WorkerID]*workerSpans)}
}

func (s *spanSink) of(w types.WorkerID) *workerSpans {
	ws, ok := s.perW[w]
	if !ok {
		ws = &workerSpans{minHbDelta: math.MaxInt64}
		s.perW[w] = ws
	}
	return ws
}

// fold absorbs one report's span batch and clock-offset estimate. Reports
// from workers without tracing enabled (no batch ever sealed, zero
// offset) are ignored without allocating per-worker state.
func (s *spanSink) fold(rep *wire.StatReport) {
	if rep.SpanSeq == 0 && rep.ClockOffNS == 0 && len(rep.Spans) == 0 {
		return
	}
	ws := s.of(rep.Worker)
	ws.offNS = rep.ClockOffNS
	if rep.SpanSeq <= ws.lastSeq {
		return // the same sealed batch riding a later report, or a stale one
	}
	ws.lastSeq = rep.SpanSeq
	for _, sp := range rep.Spans {
		if len(ws.spans) >= maxSpansPerWorker {
			s.dropped++
			continue
		}
		ws.spans = append(ws.spans, sp)
		s.total++
	}
}

// resetWorker clears a worker id's idempotence cursor and clock-offset
// state. Called when an id registers without being live: a restarted (or
// checkpoint-restored) worker restarts its batch numbering from 1, and a
// cursor inherited from the previous incarnation would silently swallow
// every batch until the new numbering happened to pass the old high-water
// mark. Collected spans are kept — they are history, not cursor state.
func (s *spanSink) resetWorker(w types.WorkerID) {
	ws, ok := s.perW[w]
	if !ok {
		return
	}
	ws.lastSeq = 0
	ws.offNS = 0
	ws.minHbDelta = math.MaxInt64
}

// noteHeartbeat refines a worker's offset bound from a stamped heartbeat.
// nowNS is the clearinghouse's wall clock at processing time.
func (s *spanSink) noteHeartbeat(w types.WorkerID, sendNS, nowNS int64) {
	if sendNS == 0 {
		return
	}
	ws := s.of(w)
	if d := nowNS - sendNS; d < ws.minHbDelta {
		ws.minHbDelta = d
	}
}

// aligned returns a copy of every collected span with its timestamps
// shifted onto the clearinghouse clock, in no particular order.
func (s *spanSink) aligned() []wire.Span {
	out := make([]wire.Span, 0, s.total)
	for _, ws := range s.perW {
		off := ws.offNS
		if ws.minHbDelta != math.MaxInt64 && ws.minHbDelta < off {
			off = ws.minHbDelta
		}
		for _, sp := range ws.spans {
			sp.Start += off
			sp.End += off
			out = append(out, sp)
		}
	}
	return out
}

func (s *spanSink) stats() (collected, dropped uint64) {
	return s.total, s.dropped
}
