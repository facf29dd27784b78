package core

import "phish/internal/wire"

// statReportBudget caps one StatReport's encoded size so the report and
// the per-frame framing share one ~60KiB datagram. A full span batch
// (512 × ~62B ≈ 31KiB) plus a checkpoint blob near the 64KiB MaxCkptBlob
// cap used to land in a single report that blew the datagram budget and was
// silently truncated on the wire; the planner below splits such snapshots
// across successive reports instead.
const statReportBudget = 56 << 10

// Encoded-size estimates, slightly generous on purpose: only the sum
// staying under the datagram budget matters, not byte exactness.
func ckptWireLen(ck wire.TaskCkpt) int { return 12 + 8 + 4 + len(ck.Data) + 16 }
func spansWireLen(n int) int           { return 8 + 8 + 4 + n*64 + 16 }
func histWireLen(h wire.HistState) int { return 4 + 8 + 8 + 4 + len(h.Counts)*8 + 16 }

func baseReportLen(rep *wire.StatReport) int {
	n := 64 + len(rep.Counters)*8
	for _, h := range rep.Hists {
		n += histWireLen(h)
	}
	return n
}

// planStatReports splits one logical telemetry snapshot into reports that
// each fit the budget. The first report carries the cumulative state
// (counters, histograms); follow-ups carry only the worker identity
// header plus overflow freight. That division is what keeps split reports
// safe to fold in any arrival order: the store's latest-wins rollup keys
// on the counter sum, so a counter-less follow-up can never clobber a
// fresher base report, while checkpoint journaling and span folding
// (keyed independently by CkptSeq and SpanSeq) apply from whichever
// report carries them.
//
// The span batch travels as one indivisible unit — SpanSeq, ClockOffNS,
// and Spans together — because the collector's latest-batch framing folds
// a batch exactly once per SpanSeq advance; splitting a batch across
// reports would drop whichever half arrives second. Checkpoint blobs pack
// greedily; a blob too large to share a report goes alone.
func planStatReports(rep wire.StatReport, budget int) []wire.StatReport {
	ident := wire.StatReport{Ver: rep.Ver, Worker: rep.Worker, Deque: rep.Deque}
	const identLen = 64

	first := ident
	first.Counters, first.Hists = rep.Counters, rep.Hists
	out := []wire.StatReport{first}
	room := budget - baseReportLen(&rep)

	if rep.SpanSeq != 0 || rep.ClockOffNS != 0 || len(rep.Spans) > 0 {
		need := spansWireLen(len(rep.Spans))
		if need > room {
			out = append(out, ident)
			room = budget - identLen
		}
		last := &out[len(out)-1]
		last.SpanSeq, last.ClockOffNS, last.Spans = rep.SpanSeq, rep.ClockOffNS, rep.Spans
		room -= need
	}
	for _, ck := range rep.Ckpts {
		need := ckptWireLen(ck)
		if need > room {
			out = append(out, ident)
			room = budget - identLen
		}
		last := &out[len(out)-1]
		last.Ckpts = append(last.Ckpts, ck)
		room -= need
	}
	return out
}
