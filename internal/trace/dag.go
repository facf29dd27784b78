// Package trace is the analysis half of the distributed tracing plane: it
// reconstructs a job's task DAG from the spans workers shipped to the
// clearinghouse collector, computes the empirical work (T1) and critical
// path (T∞) of the paper's T1/P + T∞ greedy-scheduling bound, and
// attributes each worker's wall time to execution, stealing, redo, and
// idle — the observability counterpart of the paper's Table 2. Control
// spans (wire.SpanRegister on: registration, outages, preemptions, leaves,
// retransmits) share the timeline but none of that accounting.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

// aliasDepthCap bounds steal-record alias chains when resolving join
// edges. A task re-stolen k times funnels through k records; chains
// beyond the cap (a cycle can only come from corrupt input) resolve to
// wherever the walk stopped.
const aliasDepthCap = 64

// WorkerLoad is one worker's wall-time attribution over the job.
type WorkerLoad struct {
	Worker types.WorkerID
	// Window is the worker's observed activity window (first span start
	// to last span end); Busy, Steal, and Redo partition the traced
	// parts of it and Idle is the remainder, clamped at zero.
	Window time.Duration
	Busy   time.Duration
	Steal  time.Duration
	Redo   time.Duration
	Idle   time.Duration
	Execs  int
	Steals int
	Redos  int
}

// DAG is the empirical task graph of one traced job.
type DAG struct {
	// Spans is the cluster-aligned input, sorted by start time.
	Spans []wire.Span
	// Tasks is the number of distinct executed tasks observed.
	Tasks int
	// T1 is the total work: the sum of all execution-span durations
	// (each execution slice of a preempted task counts once; a crash
	// redo's re-execution is genuinely extra work and counts too).
	T1 time.Duration
	// TInf is the empirical critical path: the longest chain of
	// dependent task executions through spawn and join edges.
	TInf time.Duration
	// CritPath lists the tasks on one longest chain, in order.
	CritPath []types.TaskID
	// Makespan is the wall time from the first execution start to the
	// last execution end on the cluster timeline.
	Makespan time.Duration
	// Workers is the per-worker attribution, sorted by worker id.
	Workers []WorkerLoad

	start int64 // cluster-time origin (min span start), for rendering
}

// BuildDAG reconstructs the task DAG from cluster-aligned spans (see
// clearinghouse.Spans). Unsampled or foreign spans are tolerated: the
// graph is built from what is present.
func BuildDAG(spans []wire.Span) *DAG {
	d := &DAG{Spans: spans}
	// Steal-record aliases: a stolen closure's continuation targets the
	// victim's steal record, so exec-span join edges point at record ids.
	// The victim's grant span carries the mapping record → real cont.
	alias := make(map[types.TaskID]types.TaskID)
	for _, sp := range spans {
		if sp.Kind == wire.SpanStealGrant && !sp.Task.Zero() && !sp.Parent.Zero() {
			alias[sp.Task] = sp.Parent
		}
	}
	resolve := func(id types.TaskID) types.TaskID {
		for i := 0; i < aliasDepthCap; i++ {
			next, ok := alias[id]
			if !ok {
				return id
			}
			id = next
		}
		return id
	}

	dur := make(map[types.TaskID]time.Duration)
	succs := make(map[types.TaskID][]types.TaskID)
	var execMin, execMax int64
	for _, sp := range spans {
		if d.start == 0 || sp.Start < d.start {
			d.start = sp.Start
		}
		if sp.Kind != wire.SpanExec {
			continue
		}
		dur[sp.Task] += time.Duration(sp.End - sp.Start)
		if execMin == 0 || sp.Start < execMin {
			execMin = sp.Start
		}
		if sp.End > execMax {
			execMax = sp.End
		}
	}
	edge := func(from, to types.TaskID) {
		if from == to {
			return
		}
		if _, ok := dur[from]; !ok {
			return
		}
		if _, ok := dur[to]; !ok {
			return
		}
		succs[from] = append(succs[from], to)
	}
	for _, sp := range spans {
		if sp.Kind != wire.SpanExec {
			continue
		}
		if !sp.Parent.Zero() {
			edge(sp.Parent, sp.Task) // spawn edge
		}
		if !sp.Link.Zero() {
			edge(sp.Task, resolve(sp.Link)) // join edge
		}
	}

	// Longest downstream chain per task, memoized; the visiting guard
	// breaks cycles (impossible in a well-formed trace, cheap to refuse).
	const visiting = time.Duration(-1)
	finish := make(map[types.TaskID]time.Duration, len(dur))
	var longest func(t types.TaskID) time.Duration
	longest = func(t types.TaskID) time.Duration {
		if f, ok := finish[t]; ok {
			if f == visiting {
				return 0
			}
			return f
		}
		finish[t] = visiting
		var best time.Duration
		for _, s := range succs[t] {
			if f := longest(s); f > best {
				best = f
			}
		}
		f := dur[t] + best
		finish[t] = f
		return f
	}
	var critHead types.TaskID
	for t := range dur {
		if f := longest(t); f > d.TInf {
			d.TInf = f
			critHead = t
		}
		d.T1 += dur[t]
	}
	d.Tasks = len(dur)
	if d.TInf > 0 {
		for t := critHead; ; {
			d.CritPath = append(d.CritPath, t)
			var next types.TaskID
			var best time.Duration
			found := false
			for _, s := range succs[t] {
				if f := finish[s]; !found || f > best {
					next, best, found = s, f, true
				}
			}
			if !found || len(d.CritPath) > len(dur) {
				break
			}
			t = next
		}
	}
	if execMax > execMin {
		d.Makespan = time.Duration(execMax - execMin)
	}

	d.Workers = buildLoads(spans)
	return d
}

// control reports whether sp records the control plane rather than the
// DAG's work, steals and redos.
func control(sp wire.Span) bool { return sp.Kind >= wire.SpanRegister }

// buildLoads attributes each worker's activity window to exec, steal,
// redo, and idle time. Control spans neither open nor widen a window.
func buildLoads(spans []wire.Span) []WorkerLoad {
	type window struct {
		load       WorkerLoad
		start, end int64
	}
	byW := make(map[types.WorkerID]*window)
	for _, sp := range spans {
		if control(sp) {
			continue
		}
		w, ok := byW[sp.Worker]
		if !ok {
			w = &window{load: WorkerLoad{Worker: sp.Worker}, start: sp.Start, end: sp.End}
			byW[sp.Worker] = w
		}
		if sp.Start < w.start {
			w.start = sp.Start
		}
		if sp.End > w.end {
			w.end = sp.End
		}
		span := time.Duration(sp.End - sp.Start)
		switch sp.Kind {
		case wire.SpanExec:
			w.load.Busy += span
			w.load.Execs++
		case wire.SpanStealReq:
			w.load.Steal += span
			w.load.Steals++
		case wire.SpanRedo:
			w.load.Redos++
		}
	}
	out := make([]WorkerLoad, 0, len(byW))
	for _, w := range byW {
		w.load.Window = time.Duration(w.end - w.start)
		w.load.Idle = w.load.Window - w.load.Busy - w.load.Steal
		if w.load.Idle < 0 {
			w.load.Idle = 0
		}
		out = append(out, w.load)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// Bound returns the greedy-scheduling bound T1/P + T∞ for p workers.
func (d *DAG) Bound(p int) time.Duration {
	if p <= 0 {
		p = 1
	}
	return d.T1/time.Duration(p) + d.TInf
}

// RenderTimeline formats the cluster timeline and the DAG summary for
// humans — the output of `phish -trace`.
func (d *DAG) RenderTimeline() string {
	var sb strings.Builder
	ms := func(x time.Duration) string { return fmt.Sprintf("%.3fms", float64(x)/1e6) }
	rel := func(ns int64) string { return ms(time.Duration(ns - d.start)) }
	fmt.Fprintf(&sb, "tasks=%d T1=%s Tinf=%s makespan=%s\n",
		d.Tasks, ms(d.T1), ms(d.TInf), ms(d.Makespan))
	for _, w := range d.Workers {
		fmt.Fprintf(&sb, "w%-3d window=%s busy=%s steal=%s idle=%s execs=%d steals=%d redos=%d\n",
			w.Worker, ms(w.Window), ms(w.Busy), ms(w.Steal), ms(w.Idle),
			w.Execs, w.Steals, w.Redos)
	}
	for _, sp := range d.Spans {
		fmt.Fprintf(&sb, "  [%s %s] w%d %s", rel(sp.Start), rel(sp.End), sp.Worker, wire.SpanKindName(sp.Kind))
		if !sp.Task.Zero() {
			fmt.Fprintf(&sb, " %s", sp.Task)
		}
		if !sp.Parent.Zero() {
			fmt.Fprintf(&sb, " parent=%s", sp.Parent)
		}
		if sp.Kind == wire.SpanLeave {
			fmt.Fprintf(&sb, " reason=%s", wire.LeaveReason(sp.Link.Seq))
		} else if !sp.Link.Zero() {
			fmt.Fprintf(&sb, " link=%s", sp.Link)
		}
		if sp.Peer != 0 && sp.Peer != sp.Worker {
			fmt.Fprintf(&sb, " peer=w%d", sp.Peer)
		}
		sb.WriteByte('\n')
	}
	if len(d.CritPath) > 0 {
		sb.WriteString("critical path:")
		for _, t := range d.CritPath {
			fmt.Fprintf(&sb, " %s", t)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// chromeEvent is one record of the Chrome trace-event JSON format
// (load the file at chrome://tracing or https://ui.perfetto.dev).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTrace renders the timeline as Chrome trace-event JSON: one
// process for the job, one thread lane per worker, complete ("X") events
// for durable spans and instant ("i") events for point spans and control
// spans.
func (d *DAG) ChromeTrace() ([]byte, error) {
	events := make([]chromeEvent, 0, len(d.Spans))
	for _, sp := range d.Spans {
		name := wire.SpanKindName(sp.Kind)
		if !sp.Task.Zero() {
			name += " " + sp.Task.String()
		}
		args := map[string]any{}
		if !sp.Task.Zero() {
			args["task"] = sp.Task.String()
		}
		if !sp.Parent.Zero() {
			args["parent"] = sp.Parent.String()
		}
		if sp.Kind == wire.SpanLeave {
			args["reason"] = wire.LeaveReason(sp.Link.Seq).String()
		} else if !sp.Link.Zero() {
			args["link"] = sp.Link.String()
		}
		if sp.Peer != 0 && sp.Peer != sp.Worker {
			args["peer"] = fmt.Sprintf("w%d", sp.Peer)
		}
		ev := chromeEvent{
			Name:  name,
			Cat:   wire.SpanKindName(sp.Kind),
			TS:    float64(sp.Start-d.start) / 1e3,
			PID:   1,
			TID:   int(sp.Worker),
			Args:  args,
			Phase: "X",
		}
		switch {
		case control(sp):
			// A marker on the lane, whatever its length: the lanes' bars
			// are the DAG's work, steals and redos.
			ev.Phase = "i"
			ev.Scope = "t"
			if sp.End > sp.Start {
				args["dur_us"] = float64(sp.End-sp.Start) / 1e3
			}
		case sp.End > sp.Start:
			ev.Dur = float64(sp.End-sp.Start) / 1e3
		default:
			ev.Phase = "i"
			ev.Scope = "t"
		}
		events = append(events, ev)
	}
	return json.MarshalIndent(map[string]any{"traceEvents": events}, "", " ")
}
