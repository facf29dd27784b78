package main

import (
	"fmt"
	"reflect"
	"time"

	"phish/internal/apps/fib"
	"phish/internal/apps/knary"
	"phish/internal/apps/pfold"
	"phish/internal/cluster"
	"phish/internal/core"
	"phish/internal/jobmanager"
	"phish/internal/types"
)

// sizes are the inputs. The full sizes are part of the workloads'
// definition (later issues cite results by workload name); the toy sizes
// exist so `go test` can drive every code path in seconds.
type sizes struct {
	fibN                 int64
	pfoldN, pfoldThresh  int
	flatFan, flatWork    int64
	macroDepth, macroFan int64
	macroWork            int64
}

var fullSizes = sizes{
	fibN:   30,
	pfoldN: 17, pfoldThresh: 6,
	flatFan: 20000, flatWork: 10000,
	macroDepth: 7, macroFan: 3, macroWork: 2000,
}

var toySizes = sizes{
	fibN:   18,
	pfoldN: 12, pfoldThresh: 4,
	flatFan: 200, flatWork: 10000,
	macroDepth: 4, macroFan: 3, macroWork: 200,
}

// workload is one named set of inputs. setUp does everything a user would
// wait for before the first timed job except the warm-up job itself:
// program registration, input generation, the timed serial reference.
type workload struct {
	name  string
	why   string
	setUp func(sz sizes, p int, seed int64) (*prepared, error)
}

// prepared is a workload ready to run jobs.
type prepared struct {
	p      int           // workers per job
	serial time.Duration // the serial reference's run time on the same input
	// runJob runs and verifies one job. Macro jobs cannot be traced (the
	// cluster exposes no spans) and ignore the flag.
	runJob func(traced bool) jobResult
	// settle is non-nil only on the macro workload. After a loop it fills
	// in each job's worker counters, re-applies the task-count gate and
	// returns the workstations' jobmanager counters. Reading worker
	// counters inside the loop would mean waiting for workers that have
	// delivered the root value but are still unregistering, which hides
	// teardown from the next job's turnaround; a back-to-back caller pays
	// it.
	settle func(results []jobResult) macroStats
	close  func()
}

// macroStats is what the cluster exposes about the macro level.
type macroStats struct {
	JobsStarted, Finished, Retired, EmptyPolls int64
}

var workloads = []workload{
	{
		name: "fib-p1",
		why:  "fib(30) on one worker: empty task bodies, so makespan is per-task overhead in core+deque (paper Table 1); no steals",
		setUp: func(sz sizes, _ int, seed int64) (*prepared, error) {
			t0 := time.Now()
			want := fib.Serial(sz.fibN)
			serial := time.Since(t0)
			j := &job{
				prog: fib.Program(), root: fib.Root, args: fib.RootArgs(sz.fibN), p: 1,
				check: func(v types.Value) error {
					if got, ok := v.(int64); !ok || got != want {
						return fmt.Errorf("fib: got %v, want %d: %w", v, want, errWrongValue)
					}
					return nil
				},
				tasks: fib.TaskCount(sz.fibN),
			}
			return microPrepared(j, serial, seed), nil
		},
	},
	{
		name: "pfold-coarse",
		why:  "pfold(17, threshold 6): ~40 us tasks, few steals; compute in apps dominates (paper Fig. 4/5), the bypass case for scheduler changes",
		setUp: func(sz sizes, p int, seed int64) (*prepared, error) {
			t0 := time.Now()
			want := pfold.Serial(sz.pfoldN)
			serial := time.Since(t0)
			j := &job{
				prog: pfold.Program(), root: pfold.Root, args: pfold.RootArgs(sz.pfoldN, sz.pfoldThresh), p: p,
				check: func(v types.Value) error {
					if got, ok := v.([]int64); !ok || !reflect.DeepEqual(got, want) {
						return fmt.Errorf("pfold: energy histogram mismatch: %w", errWrongValue)
					}
					return nil
				},
				// Checkpointable leaves count a preempted attempt as an
				// execution, so the task count depends on the schedule.
			}
			return microPrepared(j, serial, seed), nil
		},
	},
	{
		name:  "flat-steal-udp",
		why:   "flat tree of 20000 x 20 us leaves over UDP loopback: every stolen task is one leaf, so thief progress is bound by the full steal round trip (core+wire+phishnet UDP)",
		setUp: func(sz sizes, p int, seed int64) (*prepared, error) { return flatPrepared(sz, p, seed, true) },
	},
	{
		name:  "flat-steal-mem",
		why:   "the same flat tree on the in-memory fabric: same core steal protocol and mailbox, no wire and no sockets, so it splits core/mailbox gains from wire/UDP gains",
		setUp: func(sz sizes, p int, seed int64) (*prepared, error) { return flatPrepared(sz, p, seed, false) },
	},
	{
		name:  "macro-jobs",
		why:   "back-to-back 14 ms jobs through one cluster (jobq, jobmanager, per-job clearinghouse): the only workload where the macro scheduler's time to first task dominates",
		setUp: macroPrepared,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func microPrepared(j *job, serial time.Duration, seed int64) *prepared {
	return &prepared{
		p:      j.p,
		serial: serial,
		runJob: func(traced bool) jobResult { return j.run(seed, traced) },
		close:  func() {},
	}
}

func knaryCheck(depth, fan int64) func(types.Value) error {
	want := knary.Nodes(depth, fan)
	return func(v types.Value) error {
		if got, ok := v.(int64); !ok || got != want {
			return fmt.Errorf("knary: got %v nodes, want %d: %w", v, want, errWrongValue)
		}
		return nil
	}
}

// knarySerial times the serial reference of a knary tree and checks it
// against the closed form.
func knarySerial(depth, fan, work int64) (time.Duration, error) {
	t0 := time.Now()
	if got, want := knary.Serial(depth, fan, work), knary.Nodes(depth, fan); got != want {
		return 0, fmt.Errorf("knary.Serial = %d, want %d", got, want)
	}
	return time.Since(t0), nil
}

func flatPrepared(sz sizes, p int, seed int64, udp bool) (*prepared, error) {
	serial, err := knarySerial(1, sz.flatFan, sz.flatWork)
	if err != nil {
		return nil, err
	}
	j := &job{
		prog: knary.Program(), root: knary.Root, args: knary.RootArgs(1, sz.flatFan, sz.flatWork),
		p: p, udp: udp,
		check: knaryCheck(1, sz.flatFan),
		tasks: knary.TaskCount(1, sz.flatFan),
	}
	return microPrepared(j, serial, seed), nil
}

// macroPoll is the one interval the macro workload sets: the paper's
// 5 min / 30 s / 2 s polling compressed so that a 14 ms job sees the
// manager loop, not a sleep.
const macroPoll = 5 * time.Millisecond

var (
	macroJM    = jobmanager.Config{BusyPoll: macroPoll, IdleRetry: macroPoll, WorkPoll: macroPoll}
	alwaysIdle = jobmanager.PolicyFunc(func(time.Time) bool { return true })
)

func macroPrepared(sz sizes, p int, seed int64) (*prepared, error) {
	serial, err := knarySerial(sz.macroDepth, sz.macroFan, sz.macroWork)
	if err != nil {
		return nil, err
	}

	// cluster.New's own worker default, with the seed set.
	wcfg := core.DefaultConfig()
	wcfg.MaxStealFailures = 25
	wcfg.Seed = seed
	c := cluster.New(cluster.Options{Worker: wcfg, JM: macroJM})
	stations := make([]*cluster.Workstation, p)
	for i := range stations {
		stations[i] = c.AddWorkstation(alwaysIdle)
	}

	prog, args := knary.Program(), knary.RootArgs(sz.macroDepth, sz.macroFan, sz.macroWork)
	check := knaryCheck(sz.macroDepth, sz.macroFan)
	tasks := knary.TaskCount(sz.macroDepth, sz.macroFan)

	return &prepared{
		p:      p,
		serial: serial,
		runJob: func(bool) jobResult {
			var res jobResult
			t0 := time.Now()
			cj := c.Submit(prog, knary.Root, args)
			v, err := cj.Wait(jobTimeout)
			res.makespan = time.Since(t0)
			res.cj = cj
			if err == nil {
				err = check(v)
			}
			res.err = err
			return res
		},
		settle: func(results []jobResult) macroStats {
			time.Sleep(4 * macroPoll)
			for i := range results {
				r := &results[i]
				r.workers = r.cj.WorkerStats()
				if got := r.totals().TasksExecuted; r.err == nil && got != tasks {
					r.err = fmt.Errorf("job %d: tasks executed = %d, want %d", r.cj.ID, got, tasks)
				}
			}
			var ms macroStats
			for _, ws := range stations {
				s := ws.Stats()
				ms.JobsStarted += s.JobsStarted.Load()
				ms.Finished += s.Finished.Load()
				ms.Retired += s.Retired.Load()
				ms.EmptyPolls += s.EmptyPolls.Load()
			}
			return ms
		},
		close: c.Close,
	}, nil
}
