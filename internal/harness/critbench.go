package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"phish"
	"phish/internal/apps/fib"
	"phish/internal/apps/pfold"
)

// This file is the empirical-critical-path benchmark: traced runs of two
// applications whose span DAGs yield measured T1 (work) and T∞ (critical
// path), reported next to the paper's T1/P + T∞ greedy-scheduling bound
// and the measured makespan. (That the tracing plane costs the untraced
// steal path nothing is held by internal/wire's TestStealSequenceAllocs,
// which runs with a zero TraceCtx.)

// CritBenchConfig sizes the traced runs.
type CritBenchConfig struct {
	// Workers is the participant count for every run.
	Workers int
	// FibN is the fib input; it must be big enough that thieves win tasks
	// even on one core (fib(22) is the established floor).
	FibN int64
	// PfoldN and PfoldThreshold size the polymer-folding run.
	PfoldN         int
	PfoldThreshold int
	// Timeout bounds each run.
	Timeout time.Duration
}

// DefaultCritBenchConfig finishes in a few seconds on a laptop.
func DefaultCritBenchConfig() CritBenchConfig {
	return CritBenchConfig{
		Workers:        4,
		FibN:           22,
		PfoldN:         15,
		PfoldThreshold: 6,
		Timeout:        2 * time.Minute,
	}
}

// CritRow is one traced application run.
type CritRow struct {
	App     string `json:"app"`
	Workers int    `json:"workers"`
	// Tasks is the number of distinct executed tasks observed in the
	// trace; Spans the raw span count (exec + steal legs + point events).
	Tasks int `json:"tasks"`
	Spans int `json:"spans"`
	// The DAG accounting, all in milliseconds: T1 total work, TInf
	// critical path, Makespan first-exec-start to last-exec-end, Bound
	// the greedy-scheduling bound T1/P + TInf.
	T1MS       float64 `json:"t1_ms"`
	TInfMS     float64 `json:"tinf_ms"`
	MakespanMS float64 `json:"makespan_ms"`
	BoundMS    float64 `json:"bound_ms"`
	// BoundRatio is Makespan/Bound — near or below 1 when P cores really
	// run in parallel, above 1 when the workers timeshare fewer cores.
	BoundRatio float64 `json:"bound_ratio"`
	// Dropped counts spans lost to ring or collector caps (should be 0).
	Dropped uint64 `json:"dropped"`
}

// CritSummary is the headline.
type CritSummary struct {
	// WorstBoundRatio is the max Makespan/Bound across runs.
	WorstBoundRatio float64 `json:"worst_bound_ratio"`
}

// CritBenchFile is the on-disk shape of BENCH_trace.json.
type CritBenchFile struct {
	Runs    []CritRow   `json:"runs"`
	Summary CritSummary `json:"summary"`
}

// critRunOne executes one traced application and distills its DAG row.
func critRunOne(name string, prog *phish.Program, rootFn string,
	rootArgs []phish.Value, cfg CritBenchConfig) (CritRow, error) {
	wcfg := phish.DefaultWorkerConfig()
	// Keep every span: the accounting is only trustworthy lossless.
	wcfg.SpanBuf = 1 << 20
	res, err := phish.RunLocal(prog, rootFn, rootArgs, phish.LocalOptions{
		Workers:   cfg.Workers,
		Config:    wcfg,
		SpanTrace: true,
		Timeout:   cfg.Timeout,
	})
	if err != nil {
		return CritRow{}, fmt.Errorf("harness: crit %s: %w", name, err)
	}
	if len(res.Spans) == 0 {
		return CritRow{}, fmt.Errorf("harness: crit %s: traced run yielded no spans", name)
	}
	d := phish.BuildDAG(res.Spans)
	bound := d.Bound(cfg.Workers)
	row := CritRow{
		App:        name,
		Workers:    cfg.Workers,
		Tasks:      d.Tasks,
		Spans:      len(res.Spans),
		T1MS:       float64(d.T1.Nanoseconds()) / 1e6,
		TInfMS:     float64(d.TInf.Nanoseconds()) / 1e6,
		MakespanMS: float64(d.Makespan.Nanoseconds()) / 1e6,
		BoundMS:    float64(bound.Nanoseconds()) / 1e6,
		Dropped:    res.SpansDropped,
	}
	if bound > 0 {
		row.BoundRatio = float64(d.Makespan) / float64(bound)
	}
	return row, nil
}

// CritBench runs the traced applications.
func CritBench(cfg CritBenchConfig) (*CritBenchFile, error) {
	d := DefaultCritBenchConfig()
	if cfg.Workers <= 0 {
		cfg.Workers = d.Workers
	}
	if cfg.FibN <= 0 {
		cfg.FibN = d.FibN
	}
	if cfg.PfoldN <= 0 || cfg.PfoldThreshold <= 0 {
		cfg.PfoldN, cfg.PfoldThreshold = d.PfoldN, d.PfoldThreshold
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = d.Timeout
	}

	var f CritBenchFile
	fibRow, err := critRunOne(fmt.Sprintf("fib-%d", cfg.FibN),
		fib.Program(), fib.Root, fib.RootArgs(cfg.FibN), cfg)
	if err != nil {
		return nil, err
	}
	f.Runs = append(f.Runs, fibRow)
	pfRow, err := critRunOne(fmt.Sprintf("pfold-%d", cfg.PfoldN),
		pfold.Program(), pfold.Root, pfold.RootArgs(cfg.PfoldN, cfg.PfoldThreshold), cfg)
	if err != nil {
		return nil, err
	}
	f.Runs = append(f.Runs, pfRow)

	for _, r := range f.Runs {
		if r.BoundRatio > f.Summary.WorstBoundRatio {
			f.Summary.WorstBoundRatio = r.BoundRatio
		}
	}
	return &f, nil
}

// PrintCritBench renders the accounting as a table.
func PrintCritBench(w io.Writer, f *CritBenchFile) {
	fmt.Fprintf(w, "empirical critical path — measured makespan vs the T1/P + Tinf bound\n")
	fmt.Fprintf(w, "%-10s %3s %8s %8s %10s %10s %12s %10s %7s\n",
		"app", "P", "tasks", "spans", "T1", "Tinf", "makespan", "bound", "ratio")
	for _, r := range f.Runs {
		fmt.Fprintf(w, "%-10s %3d %8d %8d %9.1fms %9.1fms %11.1fms %9.1fms %7.2f\n",
			r.App, r.Workers, r.Tasks, r.Spans,
			r.T1MS, r.TInfMS, r.MakespanMS, r.BoundMS, r.BoundRatio)
	}
}

// ReadCritBenchJSON loads a recorded baseline. A missing file returns
// (nil, nil) so callers can distinguish "no baseline yet".
func ReadCritBenchJSON(path string) (*CritBenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var f CritBenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	return &f, nil
}

// WriteCritBenchJSON records the accounting as the new baseline.
func WriteCritBenchJSON(path string, f *CritBenchFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CheckCrit gates CI on the trace accounting being self-consistent:
//
//   - ≥ 2 applications traced, each with a non-degenerate DAG
//   - Tinf ≤ T1 ≤ P·makespan (work can't exceed P workers' wall time) and
//     makespan ≥ Tinf (the critical path is inherently sequential), with
//     small relative slack for rounding
//   - zero dropped spans
//
// The makespan-vs-bound ratio is reported, not gated: on a timeshared
// machine P workers share fewer cores and the ratio legitimately exceeds 1.
func CheckCrit(fresh *CritBenchFile) error {
	if len(fresh.Runs) < 2 {
		return fmt.Errorf("harness: crit traced %d apps, want >= 2", len(fresh.Runs))
	}
	const slack = 1.05 // relative slack for span-timestamp rounding
	for _, r := range fresh.Runs {
		if r.Tasks == 0 || r.T1MS <= 0 || r.TInfMS <= 0 || r.MakespanMS <= 0 {
			return fmt.Errorf("harness: crit %s: degenerate DAG %+v", r.App, r)
		}
		if r.TInfMS > r.T1MS*slack {
			return fmt.Errorf("harness: crit %s: Tinf %.1fms > T1 %.1fms", r.App, r.TInfMS, r.T1MS)
		}
		if r.T1MS > float64(r.Workers)*r.MakespanMS*slack {
			return fmt.Errorf("harness: crit %s: T1 %.1fms exceeds P*makespan %.1fms — timeline incoherent",
				r.App, r.T1MS, float64(r.Workers)*r.MakespanMS)
		}
		if r.MakespanMS*slack < r.TInfMS {
			return fmt.Errorf("harness: crit %s: makespan %.1fms below critical path %.1fms",
				r.App, r.MakespanMS, r.TInfMS)
		}
		if r.Dropped != 0 {
			return fmt.Errorf("harness: crit %s: %d spans dropped", r.App, r.Dropped)
		}
	}
	return nil
}
