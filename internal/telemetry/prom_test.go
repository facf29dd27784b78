package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phish/internal/stats"
	"phish/internal/wire"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenRegistry is a deterministic registry covering every instrument
// kind the exposition writer handles.
func goldenRegistry() *Registry {
	r := NewRegistry()
	constant := func(v int64) func() int64 { return func() int64 { return v } }
	r.CounterFunc("phish_tasks_executed_total", "Tasks executed by this worker.", constant(42), Label{"worker", "1"})
	r.CounterFunc("phish_tasks_executed_total", "Tasks executed by this worker.", constant(17), Label{"worker", "2"})
	r.GaugeFunc("phish_deque_depth", "Ready-deque depth.", constant(7))
	h := r.Histogram("phish_steal_rtt_ns", "Steal round-trip latency.", []int64{1000, 2000, 5000})
	h.Observe(500)
	h.Observe(1500)
	h.Observe(10000)
	return r
}

func TestPromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// What WriteProm emits, ParseProm reads back with the same values.
func TestPromParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]float64, len(samples))
	for _, s := range samples {
		byKey[s.Key()] = s.Value
	}
	want := map[string]float64{
		`phish_tasks_executed_total{worker="1"}`: 42,
		`phish_tasks_executed_total{worker="2"}`: 17,
		`phish_deque_depth`:                      7,
		`phish_steal_rtt_ns_bucket{le="1000"}`:   1,
		`phish_steal_rtt_ns_bucket{le="2000"}`:   2,
		`phish_steal_rtt_ns_bucket{le="5000"}`:   2,
		`phish_steal_rtt_ns_bucket{le="+Inf"}`:   3,
		`phish_steal_rtt_ns_sum`:                 12000,
		`phish_steal_rtt_ns_count`:               3,
	}
	for k, v := range want {
		got, ok := byKey[k]
		if !ok {
			t.Errorf("sample %s missing from parsed exposition", k)
		} else if got != v {
			t.Errorf("sample %s = %v, want %v", k, got, v)
		}
	}
}

// ParseProm handles the awkward corners of the exposition syntax: label
// values with embedded commas and escaped quotes, escaped backslashes,
// exponent-form floats, trailing whitespace, and a trailing comma inside
// the label block. A naive comma split of the label block would shred
// the first line.
func TestParsePromEdgeCases(t *testing.T) {
	in := strings.Join([]string{
		`phish_job_info{name="pfold, stage \"two\"",rev="abc"} 1`,
		`phish_heap_bytes 1.5e+06`,
		"phish_uptime_seconds 42.5   \t",
		`phish_flags{mode="debug",} 3`,
		`phish_path{dir="C:\\tmp"} 2`,
	}, "\n") + "\n"
	samples, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("parsed %d samples, want 5: %+v", len(samples), samples)
	}
	s := samples[0]
	if s.Name != "phish_job_info" || s.Value != 1 {
		t.Errorf("sample 0 = %+v, want phish_job_info 1", s)
	}
	if got := s.Label("name"); got != `pfold, stage "two"` {
		t.Errorf("comma-and-quote label = %q, want %q", got, `pfold, stage "two"`)
	}
	if got := s.Label("rev"); got != "abc" {
		t.Errorf("label after quoted comma = %q, want abc (comma split would eat it)", got)
	}
	if v := samples[1].Value; v != 1.5e6 {
		t.Errorf("exponent float = %v, want 1.5e+06", v)
	}
	if v := samples[2].Value; v != 42.5 {
		t.Errorf("trailing-whitespace value = %v, want 42.5", v)
	}
	if s := samples[3]; s.Label("mode") != "debug" || len(s.Labels) != 1 {
		t.Errorf("trailing-comma label block parsed as %+v", s.Labels)
	}
	if got := samples[4].Label("dir"); got != `C:\tmp` {
		t.Errorf("escaped backslash label = %q, want C:\\tmp", got)
	}
}

// Malformed exposition lines are rejected with an error, not silently
// mis-parsed.
func TestParsePromErrors(t *testing.T) {
	for _, line := range []string{
		`m{x=unquoted} 1`,  // value must be quoted
		`m{x="open} 1`,     // unterminated label value
		`m{x} 1`,           // label without '='
		`m{x="a" y="b"} 1`, // missing comma between labels
		`m 1 2`,            // too many fields
		`m{x="a"} notnum`,  // unparseable value
		`m{x="a"`,          // unterminated label block
	} {
		if _, err := ParseProm(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("ParseProm(%q) succeeded, want error", line)
		}
	}
}

// A label value full of exposition metacharacters survives the
// WriteProm -> ParseProm round trip byte for byte.
func TestPromLabelEscapeRoundTrip(t *testing.T) {
	const gnarly = `a,b="c",\d`
	r := NewRegistry()
	r.CounterFunc("phish_quoted_total", "Counter with a hostile label.",
		func() int64 { return 9 }, Label{"arg", gnarly})
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range samples {
		if s.Name == "phish_quoted_total" {
			found = true
			if got := s.Label("arg"); got != gnarly {
				t.Errorf("label round trip = %q, want %q", got, gnarly)
			}
			if s.Value != 9 {
				t.Errorf("value = %v, want 9", s.Value)
			}
		}
	}
	if !found {
		t.Fatal("phish_quoted_total missing from parsed exposition")
	}
}

// The cluster rollup exposition parses back with whole-job totals,
// per-worker series, and histogram quantile gauges present.
func TestClusterPromParseBack(t *testing.T) {
	m := NewMetrics()
	m.StealRTT().Observe(int64(5000))
	rows := []WorkerRow{
		{Worker: 2, Live: true, Deque: 3, Stats: stats.Snapshot{TasksExecuted: 10, TasksStolen: 2, TasksRedone: 1, MailboxDepthMax: 4}},
		{Worker: 1, Live: false, Deque: 0, Stats: stats.Snapshot{TasksExecuted: 5, FailedSteals: 4, MailboxDepthMax: 9}},
	}
	cs := BuildClusterSnapshot(7, "pfold", 3, 1, rows, [][]wire.HistState{m.Export()})
	if cs.Workers[0].Worker != 1 {
		t.Fatalf("rows not sorted by worker id: %+v", cs.Workers)
	}
	if cs.Totals.TasksExecuted != 15 {
		t.Fatalf("totals = %d, want 15", cs.Totals.TasksExecuted)
	}

	var buf bytes.Buffer
	if err := WriteClusterProm(&buf, cs); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(&buf)
	if err != nil {
		t.Fatalf("%v\nexposition:\n%s", err, buf.String())
	}
	if v, ok := SampleValue(samples, "phish_tasks_executed_total"); !ok || v != 15 {
		t.Errorf("phish_tasks_executed_total = %v (found %v), want 15", v, ok)
	}
	if v, ok := SampleValue(samples, "phish_tasks_redone_total"); !ok || v != 1 {
		t.Errorf("phish_tasks_redone_total = %v (found %v), want 1", v, ok)
	}
	if v, ok := SampleValue(samples, "phish_mailbox_depth_max"); !ok || v != 9 {
		t.Errorf("phish_mailbox_depth_max = %v (found %v), want 9: the deepest inbox, not a sum", v, ok)
	}
	if v, ok := SampleValue(samples, "phish_live_workers"); !ok || v != 1 {
		t.Errorf("phish_live_workers = %v (found %v), want 1", v, ok)
	}
	perWorker := 0
	for _, s := range samples {
		if s.Name == "phish_worker_deque_depth" {
			perWorker++
			if s.Label("worker") == "" {
				t.Error("per-worker sample without worker label")
			}
		}
	}
	if perWorker != 2 {
		t.Errorf("per-worker deque series = %d, want 2", perWorker)
	}
	found := false
	for _, s := range samples {
		if s.Name == "phish_steal_rtt_ns_q" && s.Label("q") == "0.99" {
			found = true
			if s.Value <= 0 {
				t.Errorf("steal-rtt p99 = %v, want > 0", s.Value)
			}
		}
	}
	if !found {
		t.Error("steal-rtt quantile gauge missing from cluster exposition")
	}
}
