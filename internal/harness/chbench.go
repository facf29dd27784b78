package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"phish/internal/clearinghouse/shardstore"
	"phish/internal/stats"
	"phish/internal/types"
	"phish/internal/wire"
)

// CHBenchConfig sizes the clearinghouse state-store scaling benchmark.
type CHBenchConfig struct {
	// Shards lists the lock-stripe counts to sweep.
	Shards []int
	// Workers lists the simulated population sizes.
	Workers []int
	// Iters is the number of hot-path rounds each ingest goroutine runs
	// (one round = one 128-message drained datagram burst).
	Iters int
	// Goroutines is the number of concurrent ingest goroutines; 0 means
	// GOMAXPROCS (the realistic ceiling: one per transport read loop).
	Goroutines int
}

// DefaultCHBenchConfig is the full sweep from the scaling study: shard
// counts 1→64 against populations 1k→100k.
func DefaultCHBenchConfig() CHBenchConfig {
	return CHBenchConfig{
		Shards:  []int{1, 4, 16, 64},
		Workers: []int{1_000, 10_000, 100_000},
		Iters:   2_000,
	}
}

// CHBenchResult is one (shards, workers) cell of the scaling study.
// GOMAXPROCS is recorded because the whole point of lock striping is
// parallel ingest: on a single-core runner every shard count collapses to
// the same serial throughput, and the numbers say so rather than lie.
type CHBenchResult struct {
	Name         string  `json:"name"`
	Shards       int     `json:"shards"`
	Workers      int     `json:"workers"`
	Goroutines   int     `json:"goroutines"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	RegPerSec    float64 `json:"registers_per_sec"`
	HotOpsPerSec float64 `json:"hot_ops_per_sec"`
	Rollups      int64   `json:"rollups"`
	SnapshotMS   float64 `json:"snapshot_ms"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

// chBenchBurst is one simulated drained datagram burst: half heartbeats,
// half piggybacked stat reports, matching the clearinghouse ingest batch.
const chBenchBurst = 128

// CHBench measures clearinghouse state-store throughput across shard
// counts and population sizes:
//
//   - Registration: the membership build-up, driven from one goroutine
//     exactly as the clearinghouse Run loop drives it.
//   - Hot path: Goroutines concurrent ingest loops folding heartbeat+
//     StatReport bursts (each burst locks every touched shard once), while
//     one reader continuously assembles merge-over-shards rollups — the
//     /metrics scrape that, under a single flat mutex, would stall every
//     fold for the duration of the scan.
//   - Snapshot: one timed full rollup at the end (members + reports).
func CHBench(cfg CHBenchConfig) []CHBenchResult {
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{1, 4, 16, 64}
	}
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1_000, 10_000, 100_000}
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 1
	}
	gor := cfg.Goroutines
	if gor <= 0 {
		gor = runtime.GOMAXPROCS(0)
	}

	var out []CHBenchResult
	for _, workers := range cfg.Workers {
		for _, shards := range cfg.Shards {
			out = append(out, chBenchOne(shards, workers, cfg.Iters, gor))
		}
	}
	return out
}

func chBenchOne(shards, workers, iters, gor int) CHBenchResult {
	s := shardstore.New(shards)
	now := time.Now()

	// Phase 1: registration storm (single writer, as in the Run loop).
	regStart := time.Now()
	for id := 0; id < workers; id++ {
		s.Register(types.WorkerID(id), wire.MemberInfo{
			Worker:   types.WorkerID(id),
			HostedBy: types.WorkerID(id),
			Site:     int32(id % 4),
		}, now)
	}
	regElapsed := time.Since(regStart)

	// Phase 2: concurrent hot-path folds against a continuous rollup
	// reader.
	var rollups atomic.Int64
	stopRead := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			_ = s.LiveCount()
			_ = s.Reports()
			_ = s.Epoch()
			rollups.Add(1)
			// A /metrics scrape has a cadence; an unpaced spin here would
			// measure reader starvation, not fold throughput.
			time.Sleep(200 * time.Microsecond)
		}
	}()

	hotStart := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			var b shardstore.HotBatch
			for i := 0; i < iters; i++ {
				b.Reset()
				for j := 0; j < chBenchBurst; j++ {
					id := types.WorkerID(rng.Intn(workers))
					if j%2 == 0 {
						b.Beats = append(b.Beats, id)
					} else {
						// Each report owns its counters slice (as decoded
						// reports do), monotone so every fold is accepted.
						counters := make([]int64, len(stats.OrderedNames))
						for k := range counters {
							counters[k] = int64(i)
						}
						b.Reports = append(b.Reports, wire.StatReport{
							Worker:   id,
							Deque:    int32(j),
							Counters: counters,
						})
					}
				}
				s.FoldHot(&b, now)
			}
		}(g)
	}
	wg.Wait()
	hotElapsed := time.Since(hotStart)
	close(stopRead)
	readerWG.Wait()

	// Phase 3: one timed full rollup.
	snapStart := time.Now()
	_ = s.Members()
	_ = s.Reports()
	snapElapsed := time.Since(snapStart)

	hotOps := float64(gor) * float64(iters) * chBenchBurst
	return CHBenchResult{
		Name:         fmt.Sprintf("ch-w%d-s%d", workers, shards),
		Shards:       shards,
		Workers:      workers,
		Goroutines:   gor,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		RegPerSec:    float64(workers) / regElapsed.Seconds(),
		HotOpsPerSec: hotOps / hotElapsed.Seconds(),
		Rollups:      rollups.Load(),
		SnapshotMS:   float64(snapElapsed.Nanoseconds()) / 1e6,
		ElapsedMS:    float64(regElapsed.Nanoseconds()+hotElapsed.Nanoseconds()) / 1e6,
	}
}

// PrintCHBench renders the scaling study as a table, grouped by
// population with per-shard speedup relative to the 1-shard row.
func PrintCHBench(w io.Writer, rs []CHBenchResult) {
	fmt.Fprintf(w, "clearinghouse store — register/heartbeat/report scaling (GOMAXPROCS=%d)\n",
		runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-16s %8s %10s %14s %14s %10s %12s\n",
		"benchmark", "shards", "workers", "reg/sec", "hot ops/sec", "vs s=1", "snapshot ms")
	base := map[int]float64{}
	for _, r := range rs {
		if r.Shards == 1 {
			base[r.Workers] = r.HotOpsPerSec
		}
	}
	for _, r := range rs {
		rel := "-"
		if b := base[r.Workers]; b > 0 {
			rel = fmt.Sprintf("%.2fx", r.HotOpsPerSec/b)
		}
		fmt.Fprintf(w, "%-16s %8d %10d %14.0f %14.0f %10s %12.2f\n",
			r.Name, r.Shards, r.Workers, r.RegPerSec, r.HotOpsPerSec, rel, r.SnapshotMS)
	}
}

// WriteCHBenchJSON records the scaling study in path (BENCH_sched.json),
// under the "clearinghouse" key it has always had.
func WriteCHBenchJSON(path string, rs []CHBenchResult) error {
	data, err := json.MarshalIndent(struct {
		Clearinghouse []CHBenchResult `json:"clearinghouse"`
	}{rs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
