// Package telemetry is the runtime's zero-dependency observability plane:
// fixed-bucket latency histograms and scrape-time counters and gauges
// behind a registry that renders Prometheus text exposition and JSON
// snapshots, an opt-in HTTP server for the daemons, and the cluster-wide
// rollup types that the clearinghouse aggregates from piggybacked worker
// stat reports.
//
// The registry owns no counters: every count in the system lives in a
// stats.Counters atomic or in a subsystem's own atomic, and is read at
// scrape time through CounterFunc or GaugeFunc.
//
// Histograms are nil-receiver safe: a disabled plane is a nil *Metrics,
// and hot-path call sites guard with a single pointer check, so turning
// telemetry off costs no atomic operations at all.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram counts int64 samples (nanoseconds, for the latency instruments)
// into fixed upper-bound buckets plus an implicit overflow bucket. Observe
// is lock-free; Snapshot is a consistent-enough copy for exposition (bucket
// loads are not atomic with respect to each other, which Prometheus
// semantics tolerate). Nil-safe.
type Histogram struct {
	bounds []int64        // strictly increasing inclusive upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is overflow (+Inf)
	count  atomic.Int64
	sum    atomic.Int64
}

// NewHistogram returns a histogram over the given inclusive upper bounds,
// which must be strictly increasing and non-empty.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not increasing at %d", i))
		}
	}
	h := &Histogram{bounds: append([]int64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// DefaultLatencyBounds covers 1µs..10s in a 1-2-5 progression — wide
// enough for in-process steals (~µs) and LAN retransmit backoffs (~s).
func DefaultLatencyBounds() []int64 {
	us, ms, s := int64(time.Microsecond), int64(time.Millisecond), int64(time.Second)
	return []int64{
		1 * us, 2 * us, 5 * us, 10 * us, 20 * us, 50 * us,
		100 * us, 200 * us, 500 * us,
		1 * ms, 2 * ms, 5 * ms, 10 * ms, 20 * ms, 50 * ms,
		100 * ms, 200 * ms, 500 * ms,
		1 * s, 2 * s, 5 * s, 10 * s,
	}
}

// bucketIndex returns the index of the bucket v falls into: the first
// bound >= v, or the overflow bucket.
func bucketIndex(bounds []int64, v int64) int {
	return sort.Search(len(bounds), func(i int) bool { return bounds[i] >= v })
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(h.bounds, v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed nanoseconds since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(int64(time.Since(t0)))
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot copies the histogram state for exposition or aggregation.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistSnapshot is an immutable copy of a Histogram: per-bucket counts
// (Counts[len(Bounds)] is the overflow bucket), total count, and sum.
type HistSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Merge adds other's samples into s. Both must share bucket bounds; Merge
// panics on a shape mismatch (it indicates mixed histogram versions).
func (s *HistSnapshot) Merge(other HistSnapshot) {
	if other.Count == 0 && other.Sum == 0 {
		return
	}
	if len(s.Bounds) == 0 && len(s.Counts) == 0 {
		// Adopt the other side's layout only when s is truly empty — a
		// bare len(Bounds) check would re-zero Counts on every merge of
		// layoutless snapshots, making the fold order-dependent.
		s.Bounds = append([]int64(nil), other.Bounds...)
		s.Counts = make([]int64, len(other.Counts))
	}
	if len(s.Counts) != len(other.Counts) {
		panic("telemetry: merging histograms with different bucket layouts")
	}
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
	s.Count += other.Count
	s.Sum += other.Sum
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation within the containing bucket. Samples in the overflow
// bucket report the highest finite bound. Returns 0 for an empty
// histogram.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == len(s.Counts)-1 {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := int64(0)
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + int64(frac*float64(hi-lo))
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}

// metric types for exposition.
const (
	typeCounter = "counter"
	typeGauge   = "gauge"
	typeHist    = "histogram"
)

// Label is one name="value" exposition label.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

type entry struct {
	name   string
	help   string
	typ    string
	labels []Label
	read   func() int64 // counter/gauge value at scrape time
	hist   *Histogram
}

func (e *entry) key() string {
	k := e.name
	for _, l := range e.labels {
		k += "\x00" + l.Name + "\x00" + l.Value
	}
	return k
}

// Registry holds named instruments for one process (or one aggregation
// point) and renders them. Registration is idempotent per (name, labels):
// re-registering keeps the first registration (and Histogram returns its
// instrument). Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byKey   map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

func (r *Registry) register(e *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byKey[e.key()]; ok {
		return old
	}
	r.entries = append(r.entries, e)
	r.byKey[e.key()] = e
	return e
}

// CounterFunc registers a counter whose value is computed at scrape time —
// the bridge for subsystems that already keep their own atomics.
func (r *Registry) CounterFunc(name, help string, f func() int64, labels ...Label) {
	r.register(&entry{name: name, help: help, typ: typeCounter, labels: labels, read: f})
}

// GaugeFunc registers a gauge computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() int64, labels ...Label) {
	r.register(&entry{name: name, help: help, typ: typeGauge, labels: labels, read: f})
}

// Histogram registers (or returns) a histogram with the given bounds.
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	h := NewHistogram(bounds)
	e := r.register(&entry{name: name, help: help, typ: typeHist, labels: labels, hist: h})
	if e.hist != nil {
		return e.hist
	}
	return h
}
