package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"phish/internal/apps/knary"
	"phish/internal/telemetry"
)

// options is one invocation: one workload, one process.
type options struct {
	seed    int64
	seconds float64 // how long the timed loop measures
	trace   bool    // the traced pass: per-layer metrics instead of end-to-end ones
	sizes   sizes
	p       int           // workers per parallel job
	setups  int           // set-ups per run; setup_s is their median
	ping    time.Duration // time budget of each transport ping-pong probe
	start   time.Time     // when the first set-up is deemed to have begun (process start)
	outDir  string        // where the trace file goes; "" writes none
}

// metric is one reported number. Timings taken over many jobs carry their
// summary; counts and ratios carry the value alone.
type metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Value  float64  `json:"value"`
	Spread *summary `json:"spread,omitempty"`
}

// environment is recorded with every result, so a number can be traced to
// the machine and build that produced it.
type environment struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	P          int    `json:"p"` // workers per job
}

// report is everything one invocation measured; main prints it and writes
// it to bench/out/.
type report struct {
	Workload string      `json:"workload"`
	Why      string      `json:"why"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	Env      environment `json:"env"`
	// Claim is always null: the change that defines the benchmark claims
	// no gain.
	Claim *string `json:"claim"`

	// CalibSpinNS is a fixed knary.Spin loop timed before and after the
	// timed jobs; Noisy is set when the two differ by more than a tenth,
	// i.e. the machine changed speed under the measurement.
	CalibSpinNS [2]float64 `json:"calib_spin_ns"`
	Noisy       bool       `json:"noisy"`

	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	FailedShare float64  `json:"failed_share"`
	Failures    []string `json:"failures,omitempty"`

	// JobsS is every passing timed job's makespan in run order, so a tail
	// sample can be found and a drift seen.
	JobsS []float64 `json:"jobs_s,omitempty"`

	EndToEnd []metric `json:"end_to_end,omitempty"`
	PerLayer []metric `json:"per_layer,omitempty"`
	// Counters are the per-layer numbers that cost nothing to read
	// (Worker.Stats sums), as the end-to-end pass prints them; the traced
	// pass carries them in PerLayer.
	Counters []metric    `json:"counters,omitempty"`
	Macro    *macroStats `json:"jobmanager,omitempty"`
	DAG      *dagSummary `json:"dag,omitempty"`
	Notes    []string    `json:"notes,omitempty"`
	// Harness holds the benchmark's own spans, recorded around its calls
	// into the layers and kept in memory until the run ends.
	Harness []harnessSpan `json:"harness_spans,omitempty"`

	PeakRSSMB  float64 `json:"peak_rss_mb"`
	HeapAllocs uint64  `json:"heap_allocs"`
}

func (r *report) fail(what string, err error) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// span opens a harness span; the returned func closes it.
func (r *report) span(name string) func() {
	start := time.Now()
	return func() {
		r.Harness = append(r.Harness, harnessSpan{Name: name, StartNS: start.UnixNano(), DurNS: time.Since(start).Nanoseconds()})
	}
}

func (r *report) note(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// calibWork is the noise probe's fixed amount of work: ~8 ms of xorshift,
// a dependency chain whose run time follows the core's clock and nothing
// else.
const calibWork = 5_000_000

// calibSpin times the probe on worker 0's CPU; the minimum of five
// discards preemptions, so what is left is that core's speed right now.
func calibSpin() float64 {
	best := time.Duration(1<<63 - 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		pinThread(0)
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if knary.Spin(1, calibWork) == 0 {
				panic("unreachable: a nonzero xorshift state never becomes zero")
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
	}()
	<-done
	return float64(best.Nanoseconds())
}

// jobLoop runs jobs one after another — a closed loop with one client —
// until budget has elapsed and minJobs have run, so that the median
// survives a stalled job or two (over UDP about one job in twenty stalls
// for ~8 s and eats most of a 10 s budget). It stops early after a failure
// that took a whole jobTimeout.
func jobLoop(prep *prepared, traced bool, budget time.Duration, minJobs int) []jobResult {
	var out []jobResult
	for t0 := time.Now(); len(out) < minJobs || time.Since(t0) < budget; {
		if n := len(out); n > 0 {
			out[n-1].spans = nil // only the last traced job's spans are read
		}
		r := prep.runJob(traced)
		out = append(out, r)
		if r.err != nil && r.makespan >= jobTimeout {
			break
		}
	}
	return out
}

// tally counts a batch of jobs into the report and returns the timings of
// the ones that passed: a failed job contributes no timing.
func (r *report) tally(what string, rs []jobResult) []jobResult {
	var ok []jobResult
	for i := range rs {
		r.Attempted++
		if rs[i].err != nil {
			r.fail(fmt.Sprintf("%s job %d", what, i), rs[i].err)
			continue
		}
		ok = append(ok, rs[i])
	}
	return ok
}

func makespans(rs []jobResult) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = rs[i].makespan.Seconds()
	}
	return out
}

// runWorkload is the whole benchmark for one workload: set up (several
// times, so setup_s is a median), run jobs for opt.seconds, verify every
// one, and — on the traced pass — run traced jobs and the layer probes.
func runWorkload(w *workload, opt options) (*report, error) {
	rep := &report{
		Workload: w.name, Why: w.why, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Env: readEnvironment(),
	}

	var prep *prepared
	var setups []time.Duration
	var serial time.Duration
	for i := 0; i < max(opt.setups, 1); i++ {
		if prep != nil {
			prep.close()
		}
		t0 := time.Now()
		if i == 0 && !opt.start.IsZero() {
			t0 = opt.start
		}
		var err error
		end := rep.span("set-up: inputs and serial reference")
		if prep, err = w.setUp(opt.sizes, opt.p, opt.seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		end()
		// The serial reference is one sample on a machine whose speed
		// wanders; across set-ups keep the fastest.
		if i == 0 || prep.serial < serial {
			serial = prep.serial
		}
		rep.CalibSpinNS[0] = calibSpin()
		end = rep.span("set-up: warm-up job")
		warm := []jobResult{prep.runJob(false)}
		end()
		setups = append(setups, time.Since(t0))
		if prep.settle != nil {
			prep.settle(warm)
		}
		rep.tally("warm-up", warm)
	}
	defer prep.close()
	prep.serial = serial
	rep.Env.P = prep.p

	// The traced pass spends half its time on plain jobs (counters, and
	// the baseline for tracing overhead) and half on traced ones. The
	// cluster exposes no spans, so macro jobs are never traced.
	budget := time.Duration(opt.seconds * float64(time.Second))
	minJobs := 5
	traceable := opt.trace && prep.settle == nil
	if traceable {
		budget /= 2
		minJobs = 3
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	end := rep.span("timed jobs")
	plain := jobLoop(prep, false, budget, minJobs)
	end()
	runtime.ReadMemStats(&ms1)
	var traced []jobResult
	if traceable {
		end = rep.span("traced jobs")
		traced = jobLoop(prep, true, budget, minJobs)
		end()
	}
	rep.CalibSpinNS[1] = calibSpin()
	if a, b := rep.CalibSpinNS[0], rep.CalibSpinNS[1]; b > 1.1*a || a > 1.1*b {
		rep.Noisy = true
	}
	if prep.settle != nil {
		ms := prep.settle(plain)
		rep.Macro = &ms
	}
	okPlain := rep.tally("timed", plain)
	okTraced := rep.tally("traced", traced)
	rep.FailedShare = float64(rep.Failed) / float64(rep.Attempted)

	if len(okPlain) > 0 {
		spans := makespans(okPlain)
		rep.JobsS = spans
		sum := summarize(spans)
		counters := counterMetrics(prep, okPlain, sum.Median, ms1.Mallocs-ms0.Mallocs)
		if opt.trace {
			rep.PerLayer = counters
		} else {
			setupSum := summarize(seconds(setups))
			rep.Counters = counters
			rep.EndToEnd = []metric{
				{Name: "makespan_s", Unit: "s", Value: sum.Median, Spread: &sum},
				{Name: "setup_s", Unit: "s", Value: setupSum.Median, Spread: &setupSum},
			}
		}
	}
	if opt.trace {
		rep.PerLayer = append(rep.PerLayer, tracedMetrics(rep, prep, okPlain, okTraced)...)
		end := rep.span("layer probes")
		rep.PerLayer = append(rep.PerLayer, layerProbes(opt.p, opt.seed, opt.ping)...)
		end()
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.HeapAllocs = ms.Mallocs
	if opt.trace {
		rep.PerLayer = append(rep.PerLayer,
			metric{Name: "proc.peak_rss_mb", Unit: "MB", Value: rep.PeakRSSMB},
			metric{Name: "proc.heap_allocs", Unit: "count", Value: float64(rep.HeapAllocs)})
		if n := len(okTraced); n > 0 && opt.outDir != "" {
			if err := writeTraceFile(opt.outDir, rep, okTraced[n-1].spans); err != nil {
				rep.note("trace file not written: %v", err)
			}
		}
	}
	if rep.Failed > 0 {
		return rep, errJobsFailed
	}
	return rep, nil
}

var errJobsFailed = errors.New("jobs failed the correctness gate")

// counterMetrics derives the per-layer numbers that come straight from
// Worker.Stats() and the serial reference. Ratios are over all jobs;
// steals is the per-job median, the figure the README's separation claims
// are stated in; retransmits and peer-gone reports (UDP only) are totals
// over the loop, because one false peer-gone is one stalled job.
func counterMetrics(prep *prepared, ok []jobResult, medMakespan float64, mallocs uint64) []metric {
	var tasks, stolen, attempts, msgs, retx, gone int64
	var exec time.Duration
	steals := make([]float64, len(ok))
	for i := range ok {
		t := ok[i].totals()
		tasks += t.TasksExecuted
		stolen += t.TasksStolen
		attempts += t.StealAttempts
		msgs += t.MessagesSent
		retx += t.Retransmits
		gone += t.PeerGoneReports
		exec += ok[i].sumExecTime()
		steals[i] = float64(t.TasksStolen)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	serial := prep.serial.Seconds()
	spans := makespans(ok)
	return []metric{
		{Name: "job_p95_s", Unit: "s", Value: percentile(spans, 0.95)},
		{Name: "job_p99_s", Unit: "s", Value: percentile(spans, 0.99)},
		{Name: "apps.serial_s", Unit: "s", Value: serial},
		{Name: "serial_slowdown", Unit: "ratio", Value: ratio(medMakespan, serial)},
		{Name: "speedup", Unit: "ratio", Value: ratio(serial, medMakespan)},
		{Name: "core.ns_per_task", Unit: "ns", Value: ratio(float64(exec.Nanoseconds()), float64(tasks))},
		{Name: "core.allocs_per_task", Unit: "count", Value: ratio(float64(mallocs), float64(tasks))},
		{Name: "core.steals", Unit: "count", Value: median(steals)},
		{Name: "core.steal_success_ratio", Unit: "ratio", Value: ratio(float64(stolen), float64(attempts))},
		{Name: "core.msgs_per_steal", Unit: "count", Value: ratio(float64(msgs), float64(stolen))},
		{Name: "phishnet.retransmits", Unit: "count", Value: float64(retx)},
		{Name: "phishnet.peer_gone", Unit: "count", Value: float64(gone)},
	}
}

// tracedMetrics summarises the traced jobs: the steal round-trip histogram
// the workers already keep, the DAG accounting of the last traced job, and
// what tracing cost.
func tracedMetrics(rep *report, prep *prepared, plain, traced []jobResult) []metric {
	var rtt telemetry.HistSnapshot
	for i := range traced {
		rtt.Merge(traced[i].rtt)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	out := []metric{
		{Name: "core.steal_rtt_us_p50", Unit: "us", Value: us(rtt.Quantile(0.5))},
		{Name: "core.steal_rtt_us_p95", Unit: "us", Value: us(rtt.Quantile(0.95))},
	}
	var d dagSummary
	overhead := 0.0
	switch {
	case prep.settle != nil:
		rep.note("macro-jobs: the cluster exposes no spans yet, so there is no traced job; only Worker.Stats sums and jobmanager.Stats are reported")
	case len(traced) == 0:
		rep.note("no traced job passed the correctness gate; trace metrics are zero")
	default:
		d = summarizeDAG(traced[len(traced)-1], prep.p)
		rep.DAG = &d
		if float64(d.Tasks) < 0.99*float64(d.TasksExecuted) {
			rep.note("the trace covers %d of the %d tasks the traced job executed (%d spans counted dropped): T1, Tinf and the accounting describe only what reached the collector",
				d.Tasks, d.TasksExecuted, d.SpansDropped)
		}
		if len(plain) > 0 {
			overhead = median(makespans(traced)) / median(makespans(plain))
		}
	}
	return append(out,
		metric{Name: "trace.t1_s", Unit: "s", Value: d.T1S},
		metric{Name: "trace.tinf_s", Unit: "s", Value: d.TInfS},
		metric{Name: "trace.makespan_over_bound", Unit: "ratio", Value: d.MakespanOverBound},
		metric{Name: "trace.other_share", Unit: "ratio", Value: d.OtherShare},
		metric{Name: "trace.overhead", Unit: "ratio", Value: overhead},
	)
}

func readEnvironment() environment {
	env := environment{
		Commit: "unknown", Go: runtime.Version(), CPU: "unknown",
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}
