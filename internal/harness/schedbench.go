package harness

import (
	"fmt"
	"io"
	"time"

	"phish"
	"phish/internal/apps/pfold"
	"phish/internal/telemetry"
)

// SchedBenchResult is one scheduler throughput measurement: a pfold run
// with the telemetry plane on, reporting task throughput and the steal
// round-trip / task-execution quantiles from the latency histograms.
// Written to BENCH_sched.json so successive PRs have a scheduling-path
// perf trajectory.
type SchedBenchResult struct {
	Name         string  `json:"name"`
	Workers      int     `json:"workers"`
	Tasks        int64   `json:"tasks"`
	Steals       int64   `json:"steals"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	TasksPerSec  float64 `json:"tasks_per_sec"`
	StealRTTP50  int64   `json:"steal_rtt_p50_ns"`
	StealRTTP99  int64   `json:"steal_rtt_p99_ns"`
	TaskExecP50  int64   `json:"task_exec_p50_ns"`
	TaskExecP99  int64   `json:"task_exec_p99_ns"`
	StealSamples int64   `json:"steal_samples"`
}

// SchedBench runs o's pfold workload at each participant count with every
// worker instrumented (all sharing one histogram set, so the quantiles
// are cluster-wide).
func (o Options) SchedBench() ([]SchedBenchResult, error) {
	ps := append([]int(nil), o.Table2Ps...)
	if len(ps) == 0 {
		ps = []int{4, 8}
	}
	var out []SchedBenchResult
	for _, p := range ps {
		m := telemetry.NewMetrics()
		cfg := o.Workers
		if cfg == (phish.WorkerConfig{}) {
			cfg = phish.DefaultWorkerConfig()
		}
		cfg.Metrics = m
		res, err := phish.RunLocal(pfold.Program(), pfold.Root,
			pfold.RootArgs(o.PfoldN, o.PfoldThreshold),
			phish.LocalOptions{Workers: p, Config: cfg, Timeout: o.Timeout})
		if err != nil {
			return nil, fmt.Errorf("harness: schedbench P=%d: %w", p, err)
		}
		rtt := m.StealRTT().Snapshot()
		exec := m.TaskExec().Snapshot()
		out = append(out, SchedBenchResult{
			Name:         fmt.Sprintf("pfold-p%d", p),
			Workers:      p,
			Tasks:        res.Totals.TasksExecuted,
			Steals:       res.Totals.TasksStolen,
			ElapsedMS:    float64(res.Elapsed.Nanoseconds()) / 1e6,
			TasksPerSec:  float64(res.Totals.TasksExecuted) / res.Elapsed.Seconds(),
			StealRTTP50:  rtt.Quantile(0.5),
			StealRTTP99:  rtt.Quantile(0.99),
			TaskExecP50:  exec.Quantile(0.5),
			TaskExecP99:  exec.Quantile(0.99),
			StealSamples: rtt.Count,
		})
	}
	return out, nil
}

// PrintSchedBench renders the measurements as a table.
func PrintSchedBench(w io.Writer, rs []SchedBenchResult) {
	fmt.Fprintf(w, "scheduler — throughput and latency quantiles (telemetry on)\n")
	fmt.Fprintf(w, "%-12s %10s %10s %12s %14s %14s %14s\n",
		"benchmark", "tasks", "steals", "tasks/sec", "stealRTT p50", "stealRTT p99", "exec p99")
	for _, r := range rs {
		fmt.Fprintf(w, "%-12s %10d %10d %12.0f %14v %14v %14v\n",
			r.Name, r.Tasks, r.Steals, r.TasksPerSec,
			time.Duration(r.StealRTTP50), time.Duration(r.StealRTTP99), time.Duration(r.TaskExecP99))
	}
}
