package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tinyOptions shrinks every workload so the whole harness runs in a unit
// test.
func tinyOptions() Options {
	o := DefaultOptions()
	o.FibN = 16
	o.NQueensN = 7
	o.RayW, o.RayH = 32, 24
	o.PfoldN = 10
	o.PfoldThreshold = 4
	o.Ps = []int{1, 2}
	o.Table2Ps = []int{2}
	o.Repeats = 1
	o.Timeout = 2 * time.Minute
	return o
}

func TestTable1Shape(t *testing.T) {
	rows, err := tinyOptions().Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	byApp := map[string]Table1Row{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.SerialTime <= 0 || r.PhishT1 <= 0 || r.StrataT1 <= 0 {
			t.Errorf("%s: non-positive timing %+v", r.App, r)
		}
	}
	// The defining shape of Table 1: fib pays far more than ray.
	if byApp["fib"].PhishSlowdown < 2*byApp["ray"].PhishSlowdown {
		t.Errorf("fib slowdown (%.1f) should dwarf ray's (%.2f)",
			byApp["fib"].PhishSlowdown, byApp["ray"].PhishSlowdown)
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	for _, want := range []string{"fib", "nqueens", "ray", "4.44", "5.90"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 1 rendering missing %q:\n%s", want, buf.String())
		}
	}
}

func TestPfoldScalingShape(t *testing.T) {
	pts, err := tinyOptions().PfoldScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].P != 1 || pts[1].P != 2 {
		t.Fatalf("points = %+v", pts)
	}
	if pts[0].Speedup < 0.99 || pts[0].Speedup > 1.01 {
		t.Errorf("P=1 speedup = %f, want 1", pts[0].Speedup)
	}
	// Tasks are structural: identical at every P, once the leaves that were
	// preempted at a Yield, stolen, and resumed from their checkpoint by the
	// adopter are counted once.
	tasks := func(pt ScalingPoint) int64 { return pt.Totals.TasksExecuted - pt.Totals.CkptResumes }
	if tasks(pts[0]) != tasks(pts[1]) {
		t.Errorf("task counts (executed − checkpoint resumes) differ across P: %d vs %d",
			tasks(pts[0]), tasks(pts[1]))
	}
	var buf bytes.Buffer
	PrintFig4(&buf, pts)
	PrintFig5(&buf, pts)
	out := buf.String()
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "Figure 5") {
		t.Errorf("figure rendering broken:\n%s", out)
	}
}

func TestTable2Rendering(t *testing.T) {
	pts, err := tinyOptions().Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].P != 2 {
		t.Fatalf("points = %+v", pts)
	}
	var buf bytes.Buffer
	PrintTable2(&buf, pts)
	out := buf.String()
	for _, want := range []string{"tasks executed", "max tasks in use", "tasks stolen",
		"synchronizations", "non-local synchs", "messages sent"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 rendering missing %q", want)
		}
	}
}

func TestMedian(t *testing.T) {
	calls := 0
	d := median(5, func() time.Duration {
		calls++
		return time.Duration(calls) * time.Second
	})
	if calls != 5 {
		t.Errorf("median ran f %d times, want 5", calls)
	}
	if d != 3*time.Second {
		t.Errorf("median = %v, want 3s", d)
	}
	if got := median(0, func() time.Duration { return time.Second }); got != time.Second {
		t.Errorf("median with repeats<1 = %v", got)
	}
}
