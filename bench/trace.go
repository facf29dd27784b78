package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"phish/internal/trace"
	"phish/internal/wire"
)

// workerShare is one worker's part of the accounting identity, in seconds.
type workerShare struct {
	Worker int     `json:"worker"`
	BusyS  float64 `json:"busy_s"`
	StealS float64 `json:"steal_s"`
	IdleS  float64 `json:"idle_s"`
	Execs  int     `json:"execs"`
	Steals int     `json:"steals"`
	Redos  int     `json:"redos"`
}

// dagSummary is trace.BuildDAG's view of one traced job next to the
// makespan the harness measured from outside.
//
// The accounting identity is P·makespan = Σbusy + Σsteal + Σidle + other.
// busy, steal and idle partition each worker's observed window (first span
// start to last span end); other is what lies outside every window —
// assembling the job, registration, the root result's trip to the
// clearinghouse — and is reported as a share of P·makespan.
type dagSummary struct {
	Tasks             int           `json:"tasks"`          // distinct tasks with an exec span
	TasksExecuted     int64         `json:"tasks_executed"` // what Worker.Stats says ran
	Spans             int           `json:"spans"`
	SpansDropped      uint64        `json:"spans_dropped"`
	MakespanS         float64       `json:"makespan_s"` // harness wall clock for this job
	T1S               float64       `json:"t1_s"`
	TInfS             float64       `json:"tinf_s"`
	BoundS            float64       `json:"greedy_bound_s"` // T1/P + Tinf
	MakespanOverBound float64       `json:"makespan_over_bound"`
	OtherS            float64       `json:"other_s"`
	OtherShare        float64       `json:"other_share"`
	Workers           []workerShare `json:"workers"`
}

func summarizeDAG(r jobResult, p int) dagSummary {
	d := trace.BuildDAG(r.spans)
	s := dagSummary{
		Tasks: d.Tasks, TasksExecuted: r.totals().TasksExecuted, Spans: len(r.spans), SpansDropped: r.dropped,
		MakespanS: r.makespan.Seconds(),
		T1S:       d.T1.Seconds(), TInfS: d.TInf.Seconds(), BoundS: d.Bound(p).Seconds(),
	}
	if s.BoundS > 0 {
		s.MakespanOverBound = s.MakespanS / s.BoundS
	}
	var accounted time.Duration
	for _, w := range d.Workers {
		accounted += w.Busy + w.Steal + w.Idle
		s.Workers = append(s.Workers, workerShare{
			Worker: int(w.Worker), BusyS: w.Busy.Seconds(), StealS: w.Steal.Seconds(), IdleS: w.Idle.Seconds(),
			Execs: w.Execs, Steals: w.Steals, Redos: w.Redos,
		})
	}
	total := time.Duration(p) * r.makespan
	s.OtherS = (total - accounted).Seconds()
	if total > 0 {
		s.OtherShare = s.OtherS / total.Seconds()
	}
	return s
}

// harnessSpan is one span the benchmark recorded around its own calls
// into the program (set-up phases, job loops, layer probes).
type harnessSpan struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_unix_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// chromeSpanCap keeps a trace file loadable: fib-p1 alone retains a
// quarter of a million spans, ~60 MB as trace events.
const chromeSpanCap = 50_000

// writeTraceFile writes <dir>/<workload>.trace.json. It is a Chrome
// trace-event file (chrome://tracing, ui.perfetto.dev): process 1 is the
// last traced job, one lane per worker, as trace.DAG.ChromeTrace renders
// it (left out when the job recorded more than chromeSpanCap spans);
// process 0 is the harness's own spans on their own clock. The whole
// report rides along under "bench".
func writeTraceFile(dir string, rep *report, spans []wire.Span) error {
	events := []json.RawMessage{}
	if len(spans) <= chromeSpanCap {
		raw, err := trace.BuildDAG(spans).ChromeTrace()
		if err != nil {
			return err
		}
		var chrome struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &chrome); err != nil {
			return err
		}
		events = chrome.TraceEvents
	} else {
		rep.note("trace file carries no worker spans: %d exceed the %d cap", len(spans), chromeSpanCap)
	}
	for _, h := range rep.Harness {
		ev, err := json.Marshal(map[string]any{
			"name": h.Name, "cat": "harness", "ph": "X", "pid": 0, "tid": 0,
			"ts": float64(h.StartNS-rep.Harness[0].StartNS) / 1e3, "dur": float64(h.DurNS) / 1e3,
		})
		if err != nil {
			return err
		}
		events = append(events, ev)
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "bench": rep})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, rep.Workload+".trace.json"), b, 0o644)
}
