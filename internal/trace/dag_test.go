package trace

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

func tid(w, seq int) types.TaskID {
	return types.TaskID{Worker: types.WorkerID(w), Seq: uint64(seq)}
}

func exec(w int, task, parent, link types.TaskID, start, end int64) wire.Span {
	return wire.Span{Kind: wire.SpanExec, Flags: wire.FlagSampled,
		Worker: types.WorkerID(w), Task: task, Parent: parent, Link: link,
		Start: start, End: end}
}

// A fork-join diamond: root spawns two children whose results join in a
// successor. T1 is the sum of all durations; T∞ is root + slowest child +
// successor.
func TestBuildDAGForkJoin(t *testing.T) {
	root, c1, c2, succ := tid(1, 1), tid(1, 2), tid(1, 3), tid(1, 4)
	chRoot := types.TaskID{Worker: types.ClearinghouseID, Seq: 1}
	spans := []wire.Span{
		exec(1, root, types.TaskID{}, chRoot, 1000, 1000+10e6),
		exec(1, c1, root, succ, 1000+10e6, 1000+30e6),
		exec(2, c2, root, succ, 1000+12e6, 1000+42e6),
		exec(1, succ, root, chRoot, 1000+42e6, 1000+47e6),
	}
	d := BuildDAG(spans)
	if d.Tasks != 4 {
		t.Fatalf("tasks = %d, want 4", d.Tasks)
	}
	if want := 65 * time.Millisecond; d.T1 != want {
		t.Errorf("T1 = %v, want %v", d.T1, want)
	}
	// Critical path root(10) → c2(30) → succ(5).
	if want := 45 * time.Millisecond; d.TInf != want {
		t.Errorf("Tinf = %v, want %v", d.TInf, want)
	}
	if want := 47 * time.Millisecond; d.Makespan != want {
		t.Errorf("makespan = %v, want %v", d.Makespan, want)
	}
	if len(d.CritPath) != 3 || d.CritPath[0] != root || d.CritPath[1] != c2 || d.CritPath[2] != succ {
		t.Errorf("critical path = %v, want [%v %v %v]", d.CritPath, root, c2, succ)
	}
	if got := d.Bound(2); got != 65*time.Millisecond/2+45*time.Millisecond {
		t.Errorf("Bound(2) = %v", got)
	}
}

// A stolen task's continuation targets the victim's steal record; the
// grant span's Task→Parent mapping must restore the real join edge so the
// critical path still threads through the join.
func TestBuildDAGStealAlias(t *testing.T) {
	root, child, succ, rec := tid(1, 1), tid(1, 2), tid(1, 3), tid(1, 9)
	spans := []wire.Span{
		exec(1, root, types.TaskID{}, types.TaskID{}, 0, 10e6),
		// The victim granted child away; its exec on the thief links to
		// the record, not to succ.
		{Kind: wire.SpanStealGrant, Worker: 1, Task: rec, Parent: succ, Link: child, Peer: 2,
			Start: 10e6, End: 11e6},
		exec(2, child, root, rec, 11e6, 31e6),
		exec(1, succ, root, types.TaskID{}, 31e6, 36e6),
	}
	d := BuildDAG(spans)
	// root(10) → child(20) → succ(5) = 35ms only if the alias resolved.
	if want := 35 * time.Millisecond; d.TInf != want {
		t.Errorf("Tinf = %v, want %v (steal-record alias not resolved)", d.TInf, want)
	}
}

func TestBuildDAGWorkerAttribution(t *testing.T) {
	spans := []wire.Span{
		exec(1, tid(1, 1), types.TaskID{}, types.TaskID{}, 0, 10e6),
		{Kind: wire.SpanStealReq, Worker: 2, Task: tid(2, 1), Peer: 1, Start: 0, End: 4e6},
		exec(2, tid(1, 2), tid(1, 1), types.TaskID{}, 4e6, 9e6),
		{Kind: wire.SpanRedo, Worker: 2, Task: tid(1, 3), Peer: 3, Start: 9e6, End: 9e6},
	}
	d := BuildDAG(spans)
	if len(d.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(d.Workers))
	}
	w2 := d.Workers[1]
	if w2.Worker != 2 || w2.Busy != 5*time.Millisecond || w2.Steal != 4*time.Millisecond ||
		w2.Idle != 0 || w2.Redos != 1 || w2.Steals != 1 {
		t.Errorf("w2 attribution = %+v", w2)
	}
	w1 := d.Workers[0]
	if w1.Busy != 10*time.Millisecond || w1.Idle != 0 || w1.Window != 10*time.Millisecond {
		t.Errorf("w1 attribution = %+v", w1)
	}
}

// Control spans share the timeline but not the accounting: wrapping a
// fixture's spans in registration, preemption, retransmit and leave spans
// — before, inside and after the work, and on a worker with no work —
// moves none of the DAG's numbers, and Chrome shows each as an instant.
func TestControlSpansStayOutOfAccounting(t *testing.T) {
	root, c1, c2, succ := tid(1, 1), tid(1, 2), tid(1, 3), tid(1, 4)
	work := []wire.Span{
		exec(1, root, types.TaskID{}, types.TaskID{}, 10e6, 20e6),
		{Kind: wire.SpanStealReq, Worker: 2, Task: tid(2, 1), Peer: 1, Start: 12e6, End: 16e6},
		exec(1, c1, root, succ, 20e6, 40e6),
		exec(2, c2, root, succ, 16e6, 46e6),
		exec(1, succ, root, types.TaskID{}, 46e6, 50e6),
	}
	control := []wire.Span{
		{Kind: wire.SpanRegister, Worker: 1, Peer: types.ClearinghouseID, Start: 1e6, End: 3e6},
		{Kind: wire.SpanRegister, Worker: 2, Peer: types.ClearinghouseID, Start: 2e6, End: 5e6},
		{Kind: wire.SpanPreempt, Worker: 2, Task: c2, Parent: root, Start: 30e6, End: 30e6},
		{Kind: wire.SpanRetransmit, Worker: 2, Peer: 1, Start: 47e6, End: 47e6},
		{Kind: wire.SpanRetransmit, Worker: 3, Peer: 1, Start: 48e6, End: 48e6},
		{Kind: wire.SpanLeave, Worker: 1, Peer: types.NoWorker, Start: 60e6, End: 60e6},
		{Kind: wire.SpanLeave, Worker: 2, Peer: 1, Link: types.TaskID{Seq: uint64(wire.LeaveReclaimed)},
			Start: 55e6, End: 55e6},
	}
	want := BuildDAG(work)
	got := BuildDAG(append(append([]wire.Span(nil), work...), control...))
	if got.T1 != want.T1 || got.TInf != want.TInf || got.Tasks != want.Tasks || got.Makespan != want.Makespan {
		t.Errorf("with control spans T1=%v TInf=%v tasks=%d makespan=%v, want %v %v %d %v",
			got.T1, got.TInf, got.Tasks, got.Makespan, want.T1, want.TInf, want.Tasks, want.Makespan)
	}
	if !reflect.DeepEqual(got.Workers, want.Workers) {
		t.Errorf("with control spans workers = %+v, want %+v", got.Workers, want.Workers)
	}

	out, err := got.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat   string         `json:"cat"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	instants := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Cat {
		case "register", "preempt", "retransmit", "leave":
			if ev.Phase != "i" {
				t.Errorf("%s event ph = %q, want i", ev.Cat, ev.Phase)
			}
			instants++
		}
		if ev.Cat == "leave" && ev.Args["peer"] == "w1" && ev.Args["reason"] != "reclaimed" {
			t.Errorf("leave args = %v, want reason reclaimed", ev.Args)
		}
	}
	if instants != len(control) {
		t.Errorf("%d control events in the Chrome trace, want %d", instants, len(control))
	}
	if tl := got.RenderTimeline(); !strings.Contains(tl, "w2 leave reason=reclaimed peer=w1") {
		t.Errorf("timeline does not show the leave reason:\n%s", tl)
	}
}

func TestChromeTraceAndTimeline(t *testing.T) {
	spans := []wire.Span{
		exec(1, tid(1, 1), types.TaskID{}, types.TaskID{}, 5e6, 15e6),
		{Kind: wire.SpanCkpt, Worker: 1, Task: tid(1, 1), Start: 10e6, End: 10e6},
	}
	d := BuildDAG(spans)
	out, err := d.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(doc.TraceEvents))
	}
	if ph := doc.TraceEvents[0]["ph"]; ph != "X" {
		t.Errorf("durable span ph = %v, want X", ph)
	}
	if ph := doc.TraceEvents[1]["ph"]; ph != "i" {
		t.Errorf("point span ph = %v, want i", ph)
	}
	tl := d.RenderTimeline()
	if !strings.Contains(tl, "T1=10.000ms") || !strings.Contains(tl, "ckpt") {
		t.Errorf("timeline missing expected fields:\n%s", tl)
	}
}

func TestBuildDAGEmpty(t *testing.T) {
	d := BuildDAG(nil)
	if d.T1 != 0 || d.TInf != 0 || d.Makespan != 0 || d.Tasks != 0 || len(d.Workers) != 0 {
		t.Errorf("empty DAG not zero: %+v", d)
	}
}
