package phish_test

import (
	"reflect"
	"testing"
	"time"

	"phish"
	"phish/internal/apps/fib"
	"phish/internal/apps/knary"
	"phish/internal/apps/pfold"
	"phish/internal/wire"
)

// A traced multi-worker run must yield a coherent cluster timeline: no
// span is lost, every executed task has an exec span, the reconstructed
// DAG's T1 and T∞ obey T∞ ≤ T1 ≤ P·makespan and makespan ≥ T∞ (an
// in-process fabric has no clock skew), and at least one steal leg was
// recorded on a job that must steal to spread work. Three applications:
// fib's empty bodies, pfold's checkpointing leaves, and a flat knary tree
// of short leaves, whose thief takes leaves in batches — every closure of a
// batch must resolve in the DAG through its own steal record.
func TestSpanTraceEndToEnd(t *testing.T) {
	// batched reports that some steal reply carried more than one closure:
	// more closures moved than requests granted.
	batched := func(tot phish.Snapshot) bool {
		return tot.TasksStolen > tot.StealAttempts-tot.FailedSteals
	}
	for _, tc := range []struct {
		name    string
		workers int
		batch   bool // retry until a reply carried a batch
		prog    *phish.Program
		root    string
		args    []phish.Value
		check   func(t *testing.T, res *phish.LocalResult, d *phish.TraceDAG)
	}{
		{"fib(22)", 4, false, fib.Program(), fib.Root, fib.RootArgs(22), func(t *testing.T, res *phish.LocalResult, d *phish.TraceDAG) {
			if got, want := res.Value.(int64), fib.Serial(22); got != want {
				t.Fatalf("fib(22) = %d, want %d", got, want)
			}
			if want := fib.TaskCount(22); int64(d.Tasks) != want {
				t.Errorf("DAG tasks = %d, want %d (one exec span per executed task)", d.Tasks, want)
			}
		}},
		{"pfold(15, 6)", 4, false, pfold.Program(), pfold.Root, pfold.RootArgs(15, 6), func(t *testing.T, res *phish.LocalResult, d *phish.TraceDAG) {
			if got, want := res.Value.([]int64), pfold.Serial(15); !reflect.DeepEqual(got, want) {
				t.Fatalf("pfold(15) = %v, want %v", got, want)
			}
			// A leaf preempted at a Yield and then stolen is executed again
			// on the thief, from its checkpoint: the counters see two
			// executions and one resume, the DAG one task.
			if tot := res.Totals; int64(d.Tasks) != tot.TasksExecuted-tot.CkptResumes {
				t.Errorf("DAG tasks = %d, counters say %d executed, %d of them resumed",
					d.Tasks, tot.TasksExecuted, tot.CkptResumes)
			}
		}},
		{"knary(1, 2000) flat", 2, true, knary.Program(), knary.Root, knary.RootArgs(1, 2000, 2000), func(t *testing.T, res *phish.LocalResult, d *phish.TraceDAG) {
			if got, want := res.Value.(int64), knary.Nodes(1, 2000); got != want {
				t.Fatalf("knary(1, 2000) = %d, want %d", got, want)
			}
			if !batched(res.Totals) {
				t.Errorf("no steal reply carried more than one closure: %d stolen by %d requests, %d failed",
					res.Totals.TasksStolen, res.Totals.StealAttempts, res.Totals.FailedSteals)
			}
			if int64(d.Tasks) != res.Totals.TasksExecuted {
				t.Errorf("DAG tasks = %d, counters say %d executed", d.Tasks, res.Totals.TasksExecuted)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// fib(22) is long enough that thieves usually win tasks even on
			// one core (the same workload TestTraceRecordsStealProtocol
			// uses); the large span buffer keeps every span for the
			// exact-count assertions. Whether any steal succeeds is still
			// timing-dependent, so retry a few times for a run with real
			// steals; the fast membership push widens the window in which
			// thieves know their victims.
			cfg := phish.DefaultWorkerConfig()
			cfg.SpanBuf = 1 << 20
			var res *phish.LocalResult
			var err error
			for attempt := 0; attempt < 5; attempt++ {
				res, err = phish.RunLocal(tc.prog, tc.root, tc.args, phish.LocalOptions{
					Workers:     tc.workers,
					Config:      cfg,
					SpanTrace:   true,
					UpdateEvery: 2 * time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Totals.TasksStolen > 0 && (!tc.batch || batched(res.Totals)) {
					break
				}
			}
			if len(res.Spans) == 0 {
				t.Fatal("traced run returned no spans")
			}
			if res.SpansDropped != 0 {
				t.Errorf("%d spans dropped", res.SpansDropped)
			}
			d := phish.BuildDAG(res.Spans)
			tc.check(t, res, d)
			if d.T1 <= 0 || d.TInf <= 0 || d.Makespan <= 0 {
				t.Fatalf("degenerate DAG: T1=%v Tinf=%v makespan=%v", d.T1, d.TInf, d.Makespan)
			}
			if d.TInf > d.T1 {
				t.Errorf("Tinf %v > T1 %v", d.TInf, d.T1)
			}
			if d.T1 > time.Duration(tc.workers)*d.Makespan {
				t.Errorf("T1 %v exceeds P * makespan %v: timeline incoherent", d.T1, time.Duration(tc.workers)*d.Makespan)
			}
			if d.Makespan < d.TInf {
				t.Errorf("makespan %v below the critical path %v", d.Makespan, d.TInf)
			}
			if len(d.CritPath) < 2 {
				t.Errorf("critical path too short: %v", d.CritPath)
			}
			kinds := map[uint8]int{}
			for _, sp := range res.Spans {
				kinds[sp.Kind]++
			}
			// The span plane must agree with the counters: a run that stole
			// tasks has all three steal legs in its trace.
			if res.Totals.TasksStolen > 0 {
				if kinds[wire.SpanStealReq] == 0 || kinds[wire.SpanStealGrant] == 0 || kinds[wire.SpanStealAdopt] == 0 {
					t.Errorf("counters say %d steals but legs missing from trace: %v", res.Totals.TasksStolen, kinds)
				}
			} else {
				t.Logf("no successful steals in any attempt; steal-leg check skipped (kinds %v)", kinds)
			}
			if _, err := d.ChromeTrace(); err != nil {
				t.Errorf("chrome export: %v", err)
			}
		})
	}
}

// Tracing off must stay off: no spans recorded, no spans returned.
func TestSpanTraceDisabled(t *testing.T) {
	res, err := phish.RunLocal(fib.Program(), fib.Root, fib.RootArgs(10), phish.LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) != 0 {
		t.Errorf("untraced run returned %d spans", len(res.Spans))
	}
}

// SpanSample = tiny probability with a single root: the root either is or
// is not sampled, and an unsampled root must produce no exec spans (the
// steal plumbing may still record its own attempt spans).
func TestSpanSampling(t *testing.T) {
	res, err := phish.RunLocal(fib.Program(), fib.Root, fib.RootArgs(10), phish.LocalOptions{
		Workers:    1,
		SpanTrace:  true,
		SpanSample: 1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range res.Spans {
		if sp.Kind == wire.SpanExec {
			t.Fatalf("unsampled root produced exec span %+v", sp)
		}
	}
}
