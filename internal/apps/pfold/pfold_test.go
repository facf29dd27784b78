package pfold

import (
	"reflect"
	"testing"

	"phish"
)

// sawCounts[k] is the number of self-avoiding walks of k steps on the
// square lattice (OEIS A001411); foldings of n monomers = sawCounts[n-1].
var sawCounts = []int64{1, 4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292, 324932}

func TestSerialFoldingCounts(t *testing.T) {
	for n := 1; n <= 10; n++ {
		hist := Serial(n)
		if got, want := Foldings(hist), sawCounts[n-1]; got != want {
			t.Errorf("n=%d: foldings = %d, want %d", n, got, want)
		}
	}
}

func TestSerialSmallHistograms(t *testing.T) {
	// n=1: one monomer, one folding, zero energy.
	if got := Serial(1); got[0] != 1 || Foldings(got) != 1 {
		t.Errorf("Serial(1) = %v", got)
	}
	// n=4: 36 foldings; the only contacts possible form the "U" shapes.
	// Exactly 8 foldings of 4 monomers have one contact (the U bends,
	// 2 orientations × 4 rotations), the rest have zero.
	hist := Serial(4)
	if hist[1] != 8 || hist[0] != 28 {
		t.Errorf("Serial(4) histogram = %v, want 28 zero-energy and 8 one-contact", hist[:3])
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		res, err := phish.RunLocal(Program(), Root, RootArgs(n, 3), phish.LocalOptions{Workers: 1})
		if err != nil {
			t.Fatalf("pfold(%d): %v", n, err)
		}
		got := res.Value.([]int64)
		if want := Serial(n); !reflect.DeepEqual(got, want) {
			t.Errorf("pfold(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestParallelMultiWorker(t *testing.T) {
	want := Serial(10)
	// The task tree does not depend on the schedule. Leaves checkpoint, and
	// a leaf preempted at a Yield and stolen before it resumes is executed
	// again by its adopter; every such extra execution is a checkpoint
	// resume, so executions minus resumes is the tree's size at any P.
	var tasks int64
	for _, p := range []int{1, 2, 4, 8} {
		res, err := phish.RunLocal(Program(), Root, RootArgs(10, 4), phish.LocalOptions{Workers: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if got := res.Value.([]int64); !reflect.DeepEqual(got, want) {
			t.Errorf("P=%d: histogram mismatch\n got %v\nwant %v", p, got, want)
		}
		tot := res.Totals
		got := tot.TasksExecuted - tot.CkptResumes
		if p == 1 {
			tasks = got
		} else if got != tasks {
			t.Errorf("P=%d: tasks executed − checkpoint resumes = %d − %d = %d, want %d (P=1)",
				p, tot.TasksExecuted, tot.CkptResumes, got, tasks)
		}
	}
}

func TestThresholdInvariance(t *testing.T) {
	// The grain-size knob must not change the answer.
	want := Serial(9)
	for _, th := range []int{1, 2, 5, 9, 100} {
		res, err := phish.RunLocal(Program(), Root, RootArgs(9, th), phish.LocalOptions{Workers: 3})
		if err != nil {
			t.Fatalf("threshold=%d: %v", th, err)
		}
		if got := res.Value.([]int64); !reflect.DeepEqual(got, want) {
			t.Errorf("threshold=%d: histogram mismatch", th)
		}
	}
}

func TestPackUnpack(t *testing.T) {
	for _, xy := range [][2]int32{{0, 0}, {1, -1}, {-5, 7}, {100, -100}, {-511, 511}} {
		p := pack(xy[0], xy[1])
		x, y := p.unpack()
		if x != xy[0] || y != xy[1] {
			t.Errorf("pack/unpack(%v) = (%d,%d)", xy, x, y)
		}
	}
}
