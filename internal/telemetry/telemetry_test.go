package telemetry

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"phish/internal/wire"
)

// Property: a sample lands in exactly one bucket, and that bucket is the
// first whose bound is >= the sample (or the overflow bucket).
func TestBucketPlacementProperty(t *testing.T) {
	bounds := DefaultLatencyBounds()
	max := bounds[len(bounds)-1]
	f := func(raw uint64) bool {
		// Range over 2x the top bound so the overflow bucket is exercised.
		v := int64(raw % uint64(2*max))
		h := NewHistogram(bounds)
		h.Observe(v)
		s := h.Snapshot()
		idx := -1
		for i, c := range s.Counts {
			switch c {
			case 0:
			case 1:
				if idx != -1 {
					return false // sample counted twice
				}
				idx = i
			default:
				return false
			}
		}
		if idx == -1 {
			return false // sample lost
		}
		if idx < len(bounds) && v > bounds[idx] {
			return false // bucket bound below the sample
		}
		if idx > 0 && v <= bounds[idx-1] {
			return false // an earlier bucket should have caught it
		}
		if idx == len(bounds) && v <= max {
			return false // overflow holds only samples above every bound
		}
		return s.Count == 1 && s.Sum == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging two histograms' snapshots equals the histogram of the
// merged sample streams.
func TestMergeEquivalenceProperty(t *testing.T) {
	bounds := []int64{10, 100, 1000, 10000}
	f := func(a, b []uint16) bool {
		ha, hb, hall := NewHistogram(bounds), NewHistogram(bounds), NewHistogram(bounds)
		for _, v := range a {
			ha.Observe(int64(v))
			hall.Observe(int64(v))
		}
		for _, v := range b {
			hb.Observe(int64(v))
			hall.Observe(int64(v))
		}
		m := ha.Snapshot()
		m.Merge(hb.Snapshot())
		return reflect.DeepEqual(m, hall.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Merging into a zero-value snapshot adopts the other's bucket layout.
func TestMergeIntoEmpty(t *testing.T) {
	h := NewHistogram([]int64{5, 50})
	h.Observe(3)
	h.Observe(30)
	var m HistSnapshot
	m.Merge(h.Snapshot())
	if !reflect.DeepEqual(m, h.Snapshot()) {
		t.Fatalf("merge into empty: got %+v want %+v", m, h.Snapshot())
	}
}

func TestQuantile(t *testing.T) {
	var empty HistSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d, want 0", q)
	}
	h := NewHistogram([]int64{100, 200, 500})
	for i := 0; i < 100; i++ {
		h.Observe(150) // all in the (100,200] bucket
	}
	s := h.Snapshot()
	for _, q := range []float64{0.1, 0.5, 0.99} {
		v := s.Quantile(q)
		if v < 100 || v > 200 {
			t.Fatalf("q%.2f = %d, want within (100,200]", q, v)
		}
	}
	if s.Quantile(0.1) > s.Quantile(0.9) {
		t.Fatal("quantiles not monotonic in q")
	}
	// Overflow samples report the highest finite bound.
	h2 := NewHistogram([]int64{100})
	h2.Observe(1 << 40)
	if q := h2.Snapshot().Quantile(0.5); q != 100 {
		t.Fatalf("overflow quantile = %d, want 100", q)
	}
}

// Quantile estimates from the bucketed histogram stay within a bounded
// relative error of the true quantiles for known distributions. Samples
// are drawn deterministically through the inverse CDF so the test has no
// RNG noise: the only error sources are bucketing and the linear
// interpolation inside a bucket.
func TestQuantileAccuracy(t *testing.T) {
	const n = 10000
	ms := float64(time.Millisecond)
	cases := []struct {
		name     string
		inverse  func(u float64) float64 // inverse CDF: uniform u -> sample
		quantile func(q float64) float64 // true quantile
		tol      float64                 // allowed relative error
	}{
		{
			// Uniform is uniform within every bucket, so the in-bucket
			// interpolation is nearly exact.
			name:     "uniform 1ms..10ms",
			inverse:  func(u float64) float64 { return ms + u*9*ms },
			quantile: func(q float64) float64 { return ms + q*9*ms },
			tol:      0.10,
		},
		{
			// Exponential density decays within a bucket, so linear
			// interpolation overshoots slightly; still well bounded on
			// the 1-2-5 latency grid.
			name:     "exponential mean 1ms",
			inverse:  func(u float64) float64 { return -ms * math.Log(1-u) },
			quantile: func(q float64) float64 { return -ms * math.Log(1-q) },
			tol:      0.15,
		},
	}
	for _, tc := range cases {
		h := NewHistogram(DefaultLatencyBounds())
		for i := 0; i < n; i++ {
			u := (float64(i) + 0.5) / n
			h.Observe(int64(tc.inverse(u)))
		}
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.99} {
			got := float64(s.Quantile(q))
			want := tc.quantile(q)
			if relErr := math.Abs(got-want) / want; relErr > tc.tol {
				t.Errorf("%s: q%.2f = %.0fns, want %.0fns within %.0f%% (off by %.1f%%)",
					tc.name, q, got, want, tc.tol*100, relErr*100)
			}
		}
	}
}

// Every instrument tolerates a nil receiver — a disabled telemetry plane.
func TestNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	if h.Count() != 0 {
		t.Fatal("nil histogram count")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot")
	}
	var m *Metrics
	m.StealRTT().Observe(1)
	m.TaskExec().ObserveSince(time.Now())
	m.WALAppend().Observe(1)
	m.RetxBackoff().Observe(1)
	m.Register().Observe(1)
	if got := m.Export(); got != nil {
		t.Fatalf("nil metrics export = %v, want nil", got)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("x_total", "", func() int64 { return 2 })
	r.CounterFunc("x_total", "", func() int64 { return 3 })
	r.GaugeFunc("g", "", func() int64 { return 1 }, Label{"worker", "1"})
	r.GaugeFunc("g", "", func() int64 { return 1 }, Label{"worker", "2"})
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("registry holds %d series, want 3 (one x_total, g per label set): %+v", len(snap), snap)
	}
	for _, m := range snap {
		if m.Name == "x_total" && m.Value != 2 {
			t.Fatalf("x_total = %d: re-registering must keep the first registration", m.Value)
		}
	}
	h1 := r.Histogram("h", "", []int64{1, 2})
	h2 := r.Histogram("h", "", []int64{1, 2})
	if h1 != h2 {
		t.Fatal("re-registering a histogram should return the same instance")
	}
}

// Export/StateSnapshot round-trip: a worker's wire.HistState restores to
// the same snapshot the worker had, and MergeStates sums across workers.
func TestExportStateRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.StealRTT().Observe(int64(3 * time.Microsecond))
	m.StealRTT().Observe(int64(30 * time.Microsecond))
	m.TaskExec().Observe(int64(time.Millisecond))

	states := m.Export()
	if len(states) != 2 {
		t.Fatalf("exported %d hist states, want 2 (empty ones skipped)", len(states))
	}
	for _, st := range states {
		got := StateSnapshot(st)
		want := m.Hist(HistKind(st.Kind)).Snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kind %d: state round trip: got %+v want %+v", st.Kind, got, want)
		}
	}

	m2 := NewMetrics()
	m2.StealRTT().Observe(int64(3 * time.Microsecond))
	merged := MergeStates([][]wire.HistState{m.Export(), m2.Export()})
	if got := merged[HistStealRTT].Count; got != 3 {
		t.Fatalf("merged steal-rtt count = %d, want 3", got)
	}
	if got := merged[HistTaskExec].Count; got != 1 {
		t.Fatalf("merged task-exec count = %d, want 1", got)
	}
}
