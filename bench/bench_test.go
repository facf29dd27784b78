package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"phish/internal/apps/fib"
	"phish/internal/types"
)

func toyOptions(trace bool, outDir string) options {
	return options{seed: 7, seconds: 0.05, trace: trace, sizes: toySizes, p: 2, setups: 1, ping: 50 * time.Millisecond, outDir: outDir}
}

// benchmarkNames reads the metric names and units BENCHMARK.json promises.
func benchmarkNames(t *testing.T) (workloadNames []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for i, w := range bf.Workloads {
		workloadNames = append(workloadNames, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json why for %s differs from the code's", w.Name)
		}
	}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return workloadNames, endToEnd, perLayer
}

func checkMetrics(t *testing.T, what string, got []metric, want map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		seen[m.Name] = true
		if unit, ok := want[m.Name]; !ok {
			t.Errorf("%s: reports %s, which BENCHMARK.json does not list", what, m.Name)
		} else if unit != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", what, m.Name, m.Value)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: does not report %s", what, name)
		}
	}
}

// TestWorkloadsAtToySize drives every workload through both passes at toy
// size, so the harness keeps compiling and running with the tree, and
// checks that what comes out is what BENCHMARK.json says comes out.
func TestWorkloadsAtToySize(t *testing.T) {
	logw = io.Discard
	names, endToEnd, perLayer := benchmarkNames(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(names), len(workloads))
	}
	out := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		if names[i] != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, names[i], w.name)
		}
		rep, err := runWorkload(w, toyOptions(false, out))
		if err != nil {
			t.Fatalf("%s: %v (%v)", w.name, err, rep)
		}
		if rep.Attempted < 2 || rep.Failed != 0 {
			t.Errorf("%s: attempted=%d failed=%d", w.name, rep.Attempted, rep.Failed)
		}
		checkMetrics(t, w.name+" end to end", rep.EndToEnd, endToEnd)
		for _, m := range rep.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics are never zero", w.name, m.Name, m.Value)
			}
		}
		line := resultLine(rep)
		if !line.Correct || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line %+v", w.name, line)
		}
	}

	// The traced pass runs the layer probes, which do not depend on the
	// workload; one traceable workload and the untraceable one cover it.
	for _, name := range []string{"flat-steal-mem", "macro-jobs"} {
		rep, err := runWorkload(findWorkload(name), toyOptions(true, out))
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		checkMetrics(t, name+" per layer", rep.PerLayer, perLayer)
		if name == "macro-jobs" {
			if rep.DAG != nil || rep.Macro == nil || rep.Macro.JobsStarted == 0 {
				t.Errorf("macro-jobs: dag=%v jobmanager=%+v", rep.DAG, rep.Macro)
			}
			continue
		}
		if rep.DAG == nil || rep.DAG.Tasks == 0 || rep.DAG.T1S <= 0 || rep.DAG.TInfS > rep.DAG.T1S {
			t.Errorf("%s: dag %+v", name, rep.DAG)
		}
		var tf struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
			Bench       report            `json:"bench"`
		}
		if err := readJSON(filepath.Join(out, name+".trace.json"), &tf); err != nil {
			t.Fatal(err)
		}
		if len(tf.TraceEvents) <= len(rep.Harness) || tf.Bench.Workload != name {
			t.Errorf("%s: trace file has %d events for workload %q", name, len(tf.TraceEvents), tf.Bench.Workload)
		}
	}
}

// TestWrongReferenceCountsFailed feeds the gate a deliberately wrong
// serial reference: every job must be counted failed, contribute no
// timing, and turn the result incorrect.
func TestWrongReferenceCountsFailed(t *testing.T) {
	wrong := fib.Serial(toySizes.fibN) + 1
	w := &workload{
		name: "wrong-reference",
		setUp: func(sz sizes, p int, seed int64) (*prepared, error) {
			j := &job{
				prog: fib.Program(), root: fib.Root, args: fib.RootArgs(sz.fibN), p: p,
				check: func(v types.Value) error {
					if v != wrong {
						return fmt.Errorf("fib: got %v, want %d: %w", v, wrong, errWrongValue)
					}
					return nil
				},
			}
			return microPrepared(j, time.Millisecond, seed), nil
		},
	}
	rep, err := runWorkload(w, toyOptions(false, ""))
	if !errors.Is(err, errJobsFailed) {
		t.Fatalf("err = %v, want errJobsFailed", err)
	}
	if rep.Failed != rep.Attempted || rep.Failed < 2 || rep.FailedShare != 1 {
		t.Errorf("attempted=%d failed=%d share=%v, want every job failed", rep.Attempted, rep.Failed, rep.FailedShare)
	}
	if len(rep.EndToEnd) != 0 || len(rep.JobsS) != 0 {
		t.Errorf("failed jobs contributed timings: %+v", rep.EndToEnd)
	}
	if line := resultLine(rep); line.Correct || line.Failed != rep.Failed {
		t.Errorf("result line %+v", line)
	}
}

// TestWrongTaskCountCountsFailed covers the other half of the gate: a
// right root value from a run that executed the wrong number of tasks.
func TestWrongTaskCountCountsFailed(t *testing.T) {
	j := &job{
		prog: fib.Program(), root: fib.Root, args: fib.RootArgs(10), p: 1,
		check: func(types.Value) error { return nil },
		tasks: fib.TaskCount(10) + 1,
	}
	if r := j.run(1, false); r.err == nil {
		t.Error("a job that executed the wrong number of tasks passed the gate")
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.N != 10 || s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 {
		t.Errorf("summarize = %+v", s)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 0.95); got != 5 {
		t.Errorf("p95 of five samples = %v, want the maximum", got)
	}
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	if got := percentile(vs, 0.95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
}

func TestCompareRuns(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	write := func(path string, v any) {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(bench, map[string]any{
		"workloads":  []map[string]string{{"name": "w"}},
		"end_to_end": []map[string]any{{"name": "makespan_s", "better": "lower", "bound": 0.1}},
	})
	run := func(name string, makespan float64, failed int) string {
		d := filepath.Join(dir, name)
		write(filepath.Join(d, "w.e2e.json"), &report{
			Workload: "w", Attempted: 3, Failed: failed,
			EndToEnd: []metric{{Name: "makespan_s", Unit: "s", Value: makespan}},
		})
		return d
	}
	a := run("A", 1.00, 0)
	var buf bytes.Buffer
	if err := compareRuns(&buf, bench, a, run("B", 1.09, 0)); err != nil {
		t.Errorf("9%% worse under a 10%% bound: %v\n%s", err, buf.String())
	}
	if err := compareRuns(&buf, bench, a, run("C", 0.5, 0)); err != nil {
		t.Errorf("better is never out of bound: %v", err)
	}
	if err := compareRuns(&buf, bench, a, run("D", 1.11, 0)); err == nil {
		t.Error("11% worse under a 10% bound passed")
	}
	if err := compareRuns(&buf, bench, a, run("E", 1.0, 1)); err == nil {
		t.Error("a run with failed jobs passed")
	}
}
