package harness

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phish/internal/clearinghouse"
	"phish/internal/cluster"
	"phish/internal/core"
	"phish/internal/idlesim"
	"phish/internal/jobmanager"
	"phish/internal/model"
	"phish/internal/types"
)

// MigrateBenchConfig sizes the migration chaos soak: a checkpointable
// workload run three times — clean, checkpointing under churn, and
// redo-from-scratch under the same seeded churn — to measure how much work
// checkpoints save.
type MigrateBenchConfig struct {
	// Chunks is the fan-out; Steps the number of ~1 ms work units per
	// chunk. Ideal work is Chunks*Steps steps.
	Chunks int64
	Steps  int64
	// Stations is the number of always-idle workstations.
	Stations int
	// Seed drives the churn gremlin (what to disrupt, at what progress, and
	// which busy worker).
	Seed int64
	// MaxCrashes is how many of the churn run's disruptions are outright
	// worker crashes (crashes are where redo-from-scratch hurts most); the
	// rest are drains and owner reclaims.
	MaxCrashes int
	// Timeout bounds each run.
	Timeout time.Duration
}

// DefaultMigrateBenchConfig finishes in well under a minute on a laptop.
func DefaultMigrateBenchConfig() MigrateBenchConfig {
	return MigrateBenchConfig{
		Chunks:     8,
		Steps:      150,
		Stations:   4,
		Seed:       20260808,
		MaxCrashes: 2,
		Timeout:    3 * time.Minute,
	}
}

// MigrateRunResult is one run of the soak workload.
type MigrateRunResult struct {
	Name      string  `json:"name"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Steps is the number of work units actually executed; Ideal the
	// fault-free minimum. WastedRatio is (Steps-Ideal)/Ideal.
	Steps          int64   `json:"steps"`
	IdealSteps     int64   `json:"ideal_steps"`
	WastedRatio    float64 `json:"wasted_ratio"`
	TasksMigrated  int64   `json:"tasks_migrated"`
	TasksPreempted int64   `json:"tasks_preempted"`
	CkptSaves      int64   `json:"ckpt_saves"`
	CkptResumes    int64   `json:"ckpt_resumes"`
	Drains         int     `json:"drains"`
	Reclaims       int     `json:"reclaims"`
	Crashes        int     `json:"crashes"`
}

// MigrateSummary is the headline comparison: wasted work with and without
// checkpoints under identical seeded churn, and drain handoff latency.
type MigrateSummary struct {
	IdealSteps   int64   `json:"ideal_steps"`
	WastedCkpt   float64 `json:"wasted_ckpt"`
	WastedNoCkpt float64 `json:"wasted_nockpt"`
	// ReductionX is WastedNoCkpt/WastedCkpt (capped at 1000 when the
	// checkpointed run wasted essentially nothing).
	ReductionX float64 `json:"reduction_x"`
	// Drain handoff latency: ReclaimWorker call to worker Run-loop exit,
	// timed on the drain events (reclaims go untimed).
	DrainP50MS float64 `json:"drain_p50_ms"`
	DrainMaxMS float64 `json:"drain_max_ms"`
}

// MigrateBenchFile is the on-disk shape of BENCH_migrate.json.
type MigrateBenchFile struct {
	Runs    []MigrateRunResult `json:"runs"`
	Summary MigrateSummary     `json:"summary"`
}

// migrateLoad is what the soak workload and the churn gremlin share: steps
// counts executed work units (so redone work is visible), running the chunk
// bodies each worker is executing now, crashed the workers the gremlin has
// crashed.
type migrateLoad struct {
	steps   atomic.Int64
	mu      sync.Mutex
	running map[types.WorkerID]int
	crashed sync.Map // types.WorkerID → true
}

func (l *migrateLoad) run(id types.WorkerID, delta int) {
	l.mu.Lock()
	l.running[id] += delta
	l.mu.Unlock()
}

// migrateBenchProg is the same fan/chunks/sum shape the cluster tests use:
// k chunk tasks of n slow steps each, checkpointing (i, partial sum) after
// every step, joined by one sum successor. A crashed workstation computes
// nothing more, but core.Worker.Crash only raises an attention bit, which a
// body sees at its next Yield — and under NoCkpt Yield never vacates, so
// the redo arm's victim would finish its chunk and often deliver the
// result. A chunk therefore also stops once its worker is marked crashed.
func migrateBenchProg(load *migrateLoad) *core.Program {
	p := core.NewProgram("migratebench")
	p.Register("chunks", func(c model.Ctx) {
		load.run(c.Worker(), 1)
		defer load.run(c.Worker(), -1)
		n := c.Int(0)
		var i, sum int64
		if ck := c.Checkpoint(); len(ck) == 16 {
			i = int64(binary.BigEndian.Uint64(ck))
			sum = int64(binary.BigEndian.Uint64(ck[8:]))
		}
		for ; i < n; i++ {
			sum += i
			load.steps.Add(1)
			time.Sleep(time.Millisecond)
			var blob [16]byte
			binary.BigEndian.PutUint64(blob[:8], uint64(i+1))
			binary.BigEndian.PutUint64(blob[8:], uint64(sum))
			if c.Yield(blob[:]) {
				return
			}
			if _, dead := load.crashed.Load(c.Worker()); dead {
				return
			}
		}
		c.Return(sum)
	})
	p.Register("fan", func(c model.Ctx) {
		k, n := c.Int(0), c.Int(1)
		s := c.Successor("sum", int(k))
		for i := int64(0); i < k; i++ {
			c.Spawn("chunks", s.Cont(int(i)), n)
		}
	})
	p.Register("sum", func(c model.Ctx) {
		var total int64
		for i := 0; i < c.NArgs(); i++ {
			total += c.Int(i)
		}
		c.Return(total)
	})
	return p
}

// MigrateBench runs the three-way soak and computes the summary.
func MigrateBench(cfg MigrateBenchConfig) (*MigrateBenchFile, error) {
	if cfg.Chunks <= 0 || cfg.Steps <= 0 {
		d := DefaultMigrateBenchConfig()
		cfg.Chunks, cfg.Steps = d.Chunks, d.Steps
	}
	if cfg.Stations <= 0 {
		cfg.Stations = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 3 * time.Minute
	}

	clean, _, err := migrateRunOne("clean", cfg, false, false)
	if err != nil {
		return nil, err
	}
	ck, drainLat, err := migrateRunOne("ckpt", cfg, true, true)
	if err != nil {
		return nil, err
	}
	nock, _, err := migrateRunOne("nockpt", cfg, true, false)
	if err != nil {
		return nil, err
	}

	sum := MigrateSummary{
		IdealSteps:   cfg.Chunks * cfg.Steps,
		WastedCkpt:   ck.WastedRatio,
		WastedNoCkpt: nock.WastedRatio,
	}
	switch {
	case sum.WastedCkpt > 0:
		sum.ReductionX = sum.WastedNoCkpt / sum.WastedCkpt
		if sum.ReductionX > 1000 {
			sum.ReductionX = 1000
		}
	case sum.WastedNoCkpt > 0:
		sum.ReductionX = 1000
	default:
		sum.ReductionX = 1
	}
	if len(drainLat) > 0 {
		sort.Slice(drainLat, func(i, j int) bool { return drainLat[i] < drainLat[j] })
		sum.DrainP50MS = float64(drainLat[len(drainLat)/2].Nanoseconds()) / 1e6
		sum.DrainMaxMS = float64(drainLat[len(drainLat)-1].Nanoseconds()) / 1e6
	}
	return &MigrateBenchFile{Runs: []MigrateRunResult{clean, ck, nock}, Summary: sum}, nil
}

// migrateEvents is the number of disruptions per churn run. They are
// placed by progress rather than wall time: event k fires when the steps
// counter crosses a seeded point in the k-th of migrateEvents strata
// spanning 15–80 % of the ideal work, so both churn arms are disrupted at
// the same progress however fast each runs (on wall-clock ticks the redo
// arm often finished before its first crash). Each event picks a worker
// that is running a chunk, so every disruption lands on work in progress.
// The crashes come first: a closure a drain has moved waits in its
// adopter's deque with a blob nobody has published yet, and a crash of the
// adopter redoes it from the lender's older copy (with the crashes last the
// checkpointing arm wasted 35–108 %).
const migrateEvents = 6

// migrateRunOne runs the workload once. churn turns the seeded gremlin on;
// ckpt selects checkpointing (false = the redo-from-scratch baseline).
// The returned latencies time a drain event's ReclaimWorker call → worker
// Run-loop exit.
func migrateRunOne(name string, cfg MigrateBenchConfig, churn, ckpt bool) (MigrateRunResult, []time.Duration, error) {
	load := &migrateLoad{running: make(map[types.WorkerID]int)}
	prog := migrateBenchProg(load)

	w := core.DefaultConfig()
	w.MaxStealFailures = 25
	w.StealTimeout = 20 * time.Millisecond
	w.HeartbeatEvery = 10 * time.Millisecond
	w.CkptEvery = 10 * time.Millisecond
	w.NoCkpt = !ckpt
	c := cluster.New(cluster.Options{
		Worker: w,
		CH: clearinghouse.Config{
			UpdateEvery:      25 * time.Millisecond,
			HeartbeatTimeout: 250 * time.Millisecond,
		},
		JM: jobmanager.Config{
			BusyPoll:  20 * time.Millisecond,
			IdleRetry: 15 * time.Millisecond,
			WorkPoll:  10 * time.Millisecond,
		},
	})
	defer c.Close()
	for i := 0; i < cfg.Stations; i++ {
		c.AddWorkstation(idlesim.Always{})
	}

	t0 := time.Now()
	j := c.Submit(prog, "fan", []types.Value{cfg.Chunks, cfg.Steps})

	var (
		latMu   sync.Mutex
		lat     []time.Duration
		waiters sync.WaitGroup
	)
	drains, reclaims, crashes := 0, 0, 0
	stop := make(chan struct{})
	gremlinDone := make(chan struct{})
	if churn {
		go func() {
			defer close(gremlinDone)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			rng := rand.New(rand.NewSource(cfg.Seed))
			ideal := float64(cfg.Chunks * cfg.Steps)
			for k := 0; k < migrateEvents; k++ {
				at := int64(ideal * (0.15 + 0.65*(float64(k)+rng.Float64())/migrateEvents))
				crash, drain, pick := k < cfg.MaxCrashes, rng.Intn(2) == 0, rng.Int()
				var busy []types.WorkerID
				for len(busy) == 0 {
					select {
					case <-stop:
						return
					case <-tick.C:
					}
					if load.steps.Load() < at {
						continue
					}
					// Crashing the root-lineage host forces a full root
					// respawn in both arms — inherent join-state loss, not
					// what this soak measures. In the paper's setting that
					// worker is the submitting user's own workstation.
					skip := types.NoWorker
					if crash {
						skip = j.RootHost()
					}
					live := j.LiveWorkers()
					load.mu.Lock()
					for _, id := range live {
						if id != skip && load.running[id] > 0 {
							busy = append(busy, id)
						}
					}
					load.mu.Unlock()
				}
				sort.Slice(busy, func(a, b int) bool { return busy[a] < busy[b] })
				id := busy[pick%len(busy)]
				switch {
				case crash:
					crashes++
					j.Crash(id)
					load.crashed.Store(id, true)
				case drain:
					drains++
					done := j.WorkerDone(id)
					dt0 := time.Now()
					j.ReclaimWorker(id)
					if done != nil {
						waiters.Add(1)
						go func() {
							defer waiters.Done()
							<-done
							latMu.Lock()
							lat = append(lat, time.Since(dt0))
							latMu.Unlock()
						}()
					}
				default:
					reclaims++
					j.ReclaimWorker(id)
				}
			}
		}()
	} else {
		close(gremlinDone)
	}

	v, err := j.Wait(cfg.Timeout)
	elapsed := time.Since(t0)
	close(stop)
	<-gremlinDone
	waiters.Wait()
	if err != nil {
		return MigrateRunResult{}, nil, fmt.Errorf("harness: migrate %s: %w", name, err)
	}
	want := cfg.Chunks * (cfg.Steps * (cfg.Steps - 1) / 2)
	if got := v.(int64); got != want {
		return MigrateRunResult{}, nil, fmt.Errorf("harness: migrate %s: result %d, want %d", name, got, want)
	}

	tot := j.Totals()
	ideal := cfg.Chunks * cfg.Steps
	r := MigrateRunResult{
		Name:           name,
		ElapsedMS:      float64(elapsed.Nanoseconds()) / 1e6,
		Steps:          load.steps.Load(),
		IdealSteps:     ideal,
		WastedRatio:    float64(load.steps.Load()-ideal) / float64(ideal),
		TasksMigrated:  tot.TasksMigrated,
		TasksPreempted: tot.TasksPreempted,
		CkptSaves:      tot.CkptSaves,
		CkptResumes:    tot.CkptResumes,
		Drains:         drains,
		Reclaims:       reclaims,
		Crashes:        crashes,
	}
	if r.WastedRatio < 0 {
		r.WastedRatio = 0
	}
	return r, lat, nil
}

// PrintMigrateBench renders the soak as a table plus the headline summary.
func PrintMigrateBench(w io.Writer, f *MigrateBenchFile) {
	fmt.Fprintf(w, "task migration — wasted work under seeded churn (ideal %d steps)\n", f.Summary.IdealSteps)
	fmt.Fprintf(w, "%-8s %10s %8s %8s %10s %10s %8s %8s %22s\n",
		"run", "elapsed", "steps", "wasted", "migrated", "preempted", "saves", "resumes", "drain/reclaim/crash")
	for _, r := range f.Runs {
		fmt.Fprintf(w, "%-8s %9.0fms %8d %7.1f%% %10d %10d %8d %8d %22s\n",
			r.Name, r.ElapsedMS, r.Steps, 100*r.WastedRatio,
			r.TasksMigrated, r.TasksPreempted, r.CkptSaves, r.CkptResumes,
			fmt.Sprintf("%d/%d/%d", r.Drains, r.Reclaims, r.Crashes))
	}
	fmt.Fprintf(w, "wasted work: %.1f%% with checkpoints vs %.1f%% redo-from-scratch (%.1fx reduction)\n",
		100*f.Summary.WastedCkpt, 100*f.Summary.WastedNoCkpt, f.Summary.ReductionX)
	if f.Summary.DrainMaxMS > 0 {
		fmt.Fprintf(w, "drain handoff: p50 %.1f ms, max %.1f ms\n",
			f.Summary.DrainP50MS, f.Summary.DrainMaxMS)
	}
}

// ReadMigrateBenchJSON loads a recorded baseline. A missing file returns
// (nil, nil) so callers can distinguish "no baseline yet".
func ReadMigrateBenchJSON(path string) (*MigrateBenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var f MigrateBenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	return &f, nil
}

// WriteMigrateBenchJSON records the soak as the new baseline.
func WriteMigrateBenchJSON(path string, f *MigrateBenchFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CheckMigrate gates CI: the fresh soak must migrate tasks, keep the ≥2x
// wasted-work reduction, and not regress the checkpointed wasted-work ratio
// above the recorded baseline (with absolute slack for timing noise; nil
// baseline skips that comparison).
func CheckMigrate(baseline, fresh *MigrateBenchFile) error {
	var ck MigrateRunResult
	for _, r := range fresh.Runs {
		if r.Name == "ckpt" {
			ck = r
		}
	}
	if ck.TasksMigrated == 0 {
		return fmt.Errorf("harness: migration soak moved zero tasks (phish_tasks_migrated_total stayed 0)")
	}
	if fresh.Summary.ReductionX < 2 {
		return fmt.Errorf("harness: wasted-work reduction %.2fx < 2x (ckpt %.1f%%, redo %.1f%%)",
			fresh.Summary.ReductionX, 100*fresh.Summary.WastedCkpt, 100*fresh.Summary.WastedNoCkpt)
	}
	if baseline != nil {
		const slack = 0.10 // absolute wasted-ratio slack for timing noise
		if fresh.Summary.WastedCkpt > baseline.Summary.WastedCkpt+slack {
			return fmt.Errorf("harness: checkpointed wasted work %.1f%% regressed above baseline %.1f%% (+%.0f%% slack)",
				100*fresh.Summary.WastedCkpt, 100*baseline.Summary.WastedCkpt, 100*slack)
		}
	}
	return nil
}
