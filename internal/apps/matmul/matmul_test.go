package matmul

import (
	"math"
	"reflect"
	"testing"

	"phish"
	"phish/internal/strata"
)

// naive is an independent oracle (ikj loops, no recursion).
func naive(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				c[i*n+j] += a[i*n+k] * b[k*n+j]
			}
		}
	}
	return c
}

func TestLeafAgainstNaive(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 32} {
		a, b := Random(n, 1), Random(n, 2)
		if got, want := mulLeaf(a, b, n), naive(a, b, n); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: leaf multiply diverges from naive", n)
		}
	}
}

func TestSerialAgainstNaive(t *testing.T) {
	// Integer-valued entries make every sum exact, so even the different
	// association order of the recursion must agree bitwise.
	for _, n := range []int{32, 64, 128} {
		a, b := Random(n, 3), Random(n, 4)
		if got, want := Serial(a, b, n), naive(a, b, n); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: recursive multiply diverges from naive", n)
		}
	}
}

func TestIdentity(t *testing.T) {
	const n = 64
	a := Random(n, 5)
	id := make([]float64, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	if got := Serial(a, id, n); !reflect.DeepEqual(got, a) {
		t.Error("A·I != A")
	}
	if got := Serial(id, a, n); !reflect.DeepEqual(got, a) {
		t.Error("I·A != A")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	const n = 128
	a, b := Random(n, 6), Random(n, 7)
	want := Serial(a, b, n)
	for _, p := range []int{1, 4} {
		res, err := phish.RunLocal(Program(), Root, RootArgs(a, b, n), phish.LocalOptions{Workers: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if got := res.Value.([]float64); !reflect.DeepEqual(got, want) {
			t.Errorf("P=%d: parallel product differs from serial", p)
		}
		// A leaf preempted at a Yield and stolen before it resumes is
		// executed again by its adopter, from the checkpoint: every such
		// extra execution is a checkpoint resume, and nothing else is.
		tot := res.Totals
		if got, want := tot.TasksExecuted-tot.CkptResumes, TaskCount(n); got != want {
			t.Errorf("P=%d: tasks executed − checkpoint resumes = %d − %d = %d, want %d",
				p, tot.TasksExecuted, tot.CkptResumes, got, want)
		}
	}
}

func TestOnStrata(t *testing.T) {
	const n = 64
	a, b := Random(n, 8), Random(n, 9)
	res, err := strata.Run(Program(), Root, RootArgs(a, b, n), 4, strata.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value.([]float64); !reflect.DeepEqual(got, Serial(a, b, n)) {
		t.Error("strata product differs from serial")
	}
}

func TestNonIntegerEntriesStayClose(t *testing.T) {
	// With real-valued entries the recursion's association order may
	// differ from naive by rounding only.
	const n = 64
	a, b := Random(n, 10), Random(n, 11)
	for i := range a {
		a[i] += 0.125
		b[i] -= 0.25
	}
	got := Serial(a, b, n)
	want := naive(a, b, n)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("entry %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestQuadrantAssembleRoundTrip(t *testing.T) {
	const n = 64
	m := Random(n, 12)
	out := make([]float64, n*n)
	for qi := 0; qi < 2; qi++ {
		for qj := 0; qj < 2; qj++ {
			assemble(out, quadrant(m, n, qi, qj), n, qi, qj)
		}
	}
	if !reflect.DeepEqual(out, m) {
		t.Error("quadrant/assemble is not the identity")
	}
}

func TestTaskCount(t *testing.T) {
	if got := TaskCount(32); got != 1 {
		t.Errorf("TaskCount(32) = %d, want 1", got)
	}
	if got := TaskCount(64); got != 10 {
		t.Errorf("TaskCount(64) = %d, want 10", got)
	}
	if got := TaskCount(128); got != 8*10+2 {
		t.Errorf("TaskCount(128) = %d, want 82", got)
	}
}
