// Command bench is the repository's benchmark: five workloads that each
// stress a different layer of the two-level scheduler, timed end to end
// from outside, plus a per-layer ledger taken through the layers' public
// functions. One invocation runs one workload in one process; run.sh is
// the front door. See README.md for the metrics and what moves what.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// processStart is when set-up is deemed to begin: package initialisation
// of this binary.
var processStart = time.Now()

// logw takes diagnostics; results go to standard output.
var logw io.Writer = os.Stderr

// workersFor is the job size on this machine: one worker per core, at
// most four, with GOMAXPROCS to match so each worker has a core.
func workersFor(ncpu int) int { return min(ncpu, 4) }

func main() {
	workload := flag.String("workload", "", "workload to run: fib-p1, pfold-coarse, flat-steal-udp, flat-steal-mem, macro-jobs")
	seed := flag.Int64("seed", 1, "the only randomness injected: every worker's core.Config.Seed")
	secs := flag.Float64("seconds", 12, "how long the timed loop measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced jobs, layer probes, per-layer metrics")
	outDir := flag.String("out", "out", "directory for result and trace files")
	list := flag.Bool("list", false, "print the workload names and exit")
	compare := flag.Bool("compare", false, "compare two result directories (args: BENCHMARK.json dirA dirB) against the benchmark's bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 3 {
			fatal(fmt.Errorf("-compare needs BENCHMARK.json dirA dirB"))
		}
		if err := compareRuns(os.Stdout, flag.Arg(0), flag.Arg(1), flag.Arg(2)); err != nil {
			fatal(err)
		}
		return
	}

	if *list {
		for _, w := range workloads {
			fmt.Println(w.name)
		}
		return
	}
	w := findWorkload(*workload)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q (see -list)", *workload))
	}

	p := workersFor(runtime.NumCPU())
	runtime.GOMAXPROCS(p)
	opt := options{
		seed: *seed, seconds: *secs, trace: *trace != 0,
		sizes: fullSizes, p: p, setups: 3, ping: 1500 * time.Millisecond, start: processStart, outDir: *outDir,
	}
	if opt.trace {
		opt.setups = 1 // setup_s is an end-to-end metric; the traced pass does not report it
	}
	rep, err := runWorkload(w, opt)
	if rep == nil {
		fatal(err)
	}
	printReport(os.Stdout, rep)
	if werr := writeResult(*outDir, rep); werr != nil {
		fmt.Fprintf(logw, "bench: result file not written: %v\n", werr)
	}
	// The contract's result line comes last.
	line, jerr := json.Marshal(resultLine(rep))
	if jerr != nil {
		fatal(jerr)
	}
	fmt.Println(string(line))
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(logw, "bench: %v\n", err)
	os.Exit(1)
}

// result is the last line of standard output, the shape the benchmark
// contract fixes.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultCell `json:"metrics"`
}

type resultCell struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLine(rep *report) result {
	ms := rep.EndToEnd
	if rep.Trace {
		ms = rep.PerLayer
	}
	out := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]resultCell{}}
	for _, m := range ms {
		out.Metrics[m.Name] = resultCell{Value: m.Value, Unit: m.Unit}
	}
	return out
}

func passName(traced bool) string {
	if traced {
		return "layers"
	}
	return "e2e"
}

// writeResult keeps the full report as <dir>/<workload>.<pass>.json.
func writeResult(dir string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, rep.Workload+"."+passName(rep.Trace)+".json"), append(b, '\n'), 0o644)
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-30s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if s := m.Spread; s != nil {
			fmt.Fprintf(w, " n=%d median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g", s.N, s.Median, s.Q1, s.Q3, s.Min, s.Max)
		}
		fmt.Fprintln(w)
	}
}

func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "workload %s  pass=%s seed=%d seconds=%g\n  why: %s\n", r.Workload, passName(r.Trace), r.Seed, r.Seconds, r.Why)
	e := r.Env
	fmt.Fprintf(w, "env  commit=%s go=%s cpu=%q nproc=%d gomaxprocs=%d P=%d\n", e.Commit, e.Go, e.CPU, e.NProc, e.GoMaxProcs, e.P)
	fmt.Fprintf(w, "noise  calib_spin_ns before=%.0f after=%.0f noisy=%v\n", r.CalibSpinNS[0], r.CalibSpinNS[1], r.Noisy)
	fmt.Fprintf(w, "jobs  attempted=%d failed=%d failed_share=%g\n", r.Attempted, r.Failed, r.FailedShare)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	if len(r.EndToEnd) > 0 {
		fmt.Fprintln(w, "end to end (tracing and telemetry off; lower is better)")
		printMetrics(w, r.EndToEnd)
		fmt.Fprintln(w, "counters (Worker.Stats and the serial reference; not gated)")
		printMetrics(w, r.Counters)
	}
	if len(r.PerLayer) > 0 {
		fmt.Fprintln(w, "per layer (taken from outside; not gated)")
		printMetrics(w, r.PerLayer)
	}
	if m := r.Macro; m != nil {
		fmt.Fprintf(w, "jobmanager.Stats summed over workstations: started=%d finished=%d retired=%d empty_polls=%d\n",
			m.JobsStarted, m.Finished, m.Retired, m.EmptyPolls)
	}
	if d := r.DAG; d != nil {
		fmt.Fprintf(w, "trace of the last traced job: tasks=%d spans=%d dropped=%d\n", d.Tasks, d.Spans, d.SpansDropped)
		fmt.Fprintf(w, "  makespan=%.6gs T1=%.6gs Tinf=%.6gs bound(T1/P+Tinf)=%.6gs makespan/bound=%.4g\n",
			d.MakespanS, d.T1S, d.TInfS, d.BoundS, d.MakespanOverBound)
		for _, ws := range d.Workers {
			fmt.Fprintf(w, "  w%-3d busy=%.6gs steal=%.6gs idle=%.6gs execs=%d steals=%d redos=%d\n",
				ws.Worker, ws.BusyS, ws.StealS, ws.IdleS, ws.Execs, ws.Steals, ws.Redos)
		}
		fmt.Fprintf(w, "  P*makespan = busy+steal+idle + other; other=%.6gs (%.2f%% of P*makespan)\n", d.OtherS, 100*d.OtherShare)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintf(w, "memory  peak_rss_mb=%.1f heap_allocs=%d\n", r.PeakRSSMB, r.HeapAllocs)
}
