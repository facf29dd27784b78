// Command phish launches a parallel job the way the paper describes:
// "simply typing `ray my-scene` ... starts up the Clearinghouse and the
// first worker on the local workstation, so the computation begins right
// away. Also by default, it automatically submits the job to the
// PhishJobQ. Thus, as other workstations become idle, they automatically
// begin working on the ray-tracing job."
//
// Usage:
//
//	phish [-jobq host:7070] [-workers 4] [-out img.ppm] <program> [args...]
//
// Examples:
//
//	phish ray default 320 240        # trace the default scene locally
//	phish -jobq :7070 pfold 18       # fold and let the network pile on
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"phish/internal/apps"
	"phish/internal/apps/ray"
	"phish/internal/clearinghouse"
	"phish/internal/clock"
	"phish/internal/core"
	"phish/internal/jobq"
	"phish/internal/phishnet"
	"phish/internal/telemetry"
	"phish/internal/trace"
	"phish/internal/types"
	"phish/internal/wire"
)

func main() {
	jobqAddr := flag.String("jobq", "", "PhishJobQ address to submit the job to (empty = run purely locally)")
	chAddr := flag.String("ch-addr", ":0", "UDP address for the clearinghouse")
	workers := flag.Int("workers", 1, "local workers to start immediately")
	out := flag.String("out", "", "write a ray image result to this PPM file")
	timeout := flag.Duration("timeout", 0, "give up after this long (0 = wait forever)")
	stats := flag.Bool("stats", false, "print per-worker scheduling statistics at the end")
	ckptFile := flag.String("checkpoint", "", "periodically checkpoint the job to this file")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "checkpoint interval")
	restore := flag.String("restore", "", "resume the job from this checkpoint file instead of starting fresh")
	metricsAddr := flag.String("metrics", "", "serve the job's telemetry rollup at /metrics and /cluster.json on this HTTP address (off when empty)")
	phi := flag.Float64("phi", 8, "phi-accrual crash threshold (8 ~= 1-1e-8 confidence; 0 falls back to the fixed heartbeat timeout for everyone)")
	drainAfter := flag.Duration("drain-after", 0, "order a planned drain for a worker graded suspect continuously this long (0 disables)")
	top := flag.String("top", "", "phishtop: poll a clearinghouse telemetry URL (e.g. http://host:9090) and render a live cluster table instead of running a job")
	topEvery := flag.Duration("top-interval", 2*time.Second, "phishtop poll interval")
	traceFlag := flag.Bool("trace", false, "record a distributed span trace and print the cluster timeline with T1/Tinf accounting at the end")
	traceOut := flag.String("trace-out", "", "also write the trace as Chrome trace-event JSON to this file (implies -trace; open in chrome://tracing or ui.perfetto.dev)")
	traceSample := flag.Float64("trace-sample", 1, "per-root span sampling probability (values outside (0,1) sample everything)")
	flag.Usage = func() {
		fmt.Println("usage: phish [flags] <program> [args...]\nprograms:")
		fmt.Print(apps.Usage())
		flag.PrintDefaults()
	}
	flag.Parse()
	apps.RegisterAll()
	if *traceOut != "" {
		*traceFlag = true
	}

	if *top != "" {
		runTop(*top, *topEvery)
		return
	}

	var cp *clearinghouse.JobCheckpoint
	if *restore != "" {
		f, err := os.Open(*restore)
		if err != nil {
			log.Fatalf("phish: %v", err)
		}
		var rerr error
		cp, rerr = clearinghouse.ReadCheckpoint(f)
		f.Close()
		if rerr != nil {
			log.Fatalf("phish: %v", rerr)
		}
	} else if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	var app apps.App
	var rootArgs []types.Value
	var err error
	if cp != nil {
		app, err = apps.Lookup(cp.Spec.Program)
		if err != nil {
			log.Fatalf("phish: checkpointed program: %v", err)
		}
	} else {
		app, err = apps.Lookup(flag.Arg(0))
		if err != nil {
			log.Fatalf("phish: %v", err)
		}
		rootArgs, err = app.ParseArgs(flag.Args()[1:])
		if err != nil {
			log.Fatalf("phish: %v", err)
		}
	}

	// Start the clearinghouse on this workstation.
	jobID := types.JobID(time.Now().UnixNano()&0x7fffffff | 1)
	if cp != nil {
		jobID = cp.Spec.ID
	}
	chConn, err := phishnet.ListenUDP(jobID, types.ClearinghouseID, *chAddr)
	if err != nil {
		log.Fatalf("phish: %v", err)
	}
	spec := wire.JobSpec{
		ID:       jobID,
		Name:     app.Name,
		Program:  app.Name,
		RootFn:   app.Root,
		RootArgs: rootArgs,
		CHAddr:   chConn.LocalAddr(),
	}
	chCfg := clearinghouse.DefaultConfig()
	chCfg.UpdateEvery = 15 * time.Second
	chCfg.HeartbeatTimeout = 30 * time.Second
	chCfg.PhiThreshold = *phi
	chCfg.SuspectDrainAfter = *drainAfter
	if *metricsAddr != "" {
		chCfg.Metrics = telemetry.NewMetrics()
	}
	var ch *clearinghouse.Clearinghouse
	if cp != nil {
		cp.Spec.CHAddr = chConn.LocalAddr()
		spec = cp.Spec
		ch = clearinghouse.NewFromCheckpoint(cp, chConn, chCfg)
		fmt.Printf("phish: resuming job %d (%s) from %s (%d state bundles)\n",
			spec.ID, spec.Name, *restore, len(cp.States))
	} else {
		ch = clearinghouse.New(spec, chConn, chCfg)
	}
	go ch.Run()
	defer ch.Stop()

	if *metricsAddr != "" {
		srv, err := telemetry.NewServer(*metricsAddr)
		if err != nil {
			log.Fatalf("phish: %v", err)
		}
		defer srv.Close()
		preg := telemetry.NewRegistry()
		telemetry.RegisterRuntime(preg)
		srv.Handle("/metrics", telemetry.ClusterMetricsWithProcessHandler(ch.ClusterSnapshot, preg))
		srv.Handle("/cluster.json", telemetry.ClusterJSONHandler(ch.ClusterSnapshot))
		fmt.Printf("phish: telemetry on http://%s/metrics (watch live: phish -top http://%s)\n",
			srv.Addr(), srv.Addr())
	}

	// Periodic checkpointing.
	if *ckptFile != "" {
		go func() {
			for {
				time.Sleep(*ckptEvery)
				if ch.Done() {
					return
				}
				snap, err := ch.Checkpoint(time.Minute)
				if err != nil {
					log.Printf("phish: checkpoint skipped: %v", err)
					continue
				}
				tmp := *ckptFile + ".tmp"
				f, err := os.Create(tmp)
				if err != nil {
					log.Printf("phish: checkpoint: %v", err)
					continue
				}
				werr := clearinghouse.WriteCheckpoint(f, snap)
				cerr := f.Close()
				if werr != nil || cerr != nil {
					log.Printf("phish: checkpoint write failed: %v %v", werr, cerr)
					continue
				}
				if err := os.Rename(tmp, *ckptFile); err != nil {
					log.Printf("phish: checkpoint rename: %v", err)
					continue
				}
				fmt.Printf("phish: checkpointed %d participants to %s\n", len(snap.States), *ckptFile)
			}
		}()
	}

	// Submit to the PhishJobQ so idle workstations join.
	if *jobqAddr != "" {
		cli := jobq.NewClient(*jobqAddr)
		id, err := cli.Submit(spec)
		if err != nil {
			log.Fatalf("phish: submit: %v", err)
		}
		defer func() {
			_ = cli.Done(id)
			_ = cli.Close()
		}()
		fmt.Printf("phish: job %d submitted to %s\n", id, *jobqAddr)
	}

	// Start the first worker(s) locally — the computation begins right
	// away.
	prog, err := core.LookupProgram(app.Name)
	if err != nil {
		log.Fatalf("phish: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.HeartbeatEvery = 5 * time.Second
	cfg.StealTimeout = time.Second
	cfg.StealBackoff = 5 * time.Millisecond
	if *metricsAddr != "" {
		// Faster piggybacked reports so phishtop tracks the local workers
		// closely; each worker gets its own histogram set.
		cfg.HeartbeatEvery = 2 * time.Second
	}
	var wg sync.WaitGroup
	locals := make([]*core.Worker, 0, *workers)
	// Restored workers take ids clear of anything a previous incarnation
	// could have used, so checkpoint bundles never collide with them.
	idBase := 0
	if cp != nil {
		idBase = 1 << 30
	}
	for i := 0; i < *workers; i++ {
		conn, err := phishnet.ListenUDP(jobID, types.WorkerID(idBase+i), ":0")
		if err != nil {
			log.Fatalf("phish: %v", err)
		}
		conn.SetPeer(types.ClearinghouseID, chConn.LocalAddr())
		wcfg := cfg
		if *metricsAddr != "" {
			wcfg.Metrics = telemetry.NewMetrics()
		}
		if *traceFlag {
			wcfg.SpanTrace = true
			wcfg.SpanSample = *traceSample
		}
		w := core.NewWorker(jobID, types.WorkerID(idBase+i), prog, conn, wcfg, clock.System)
		locals = append(locals, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run()
		}()
	}

	fmt.Printf("phish: running %s (clearinghouse %s, %d local workers)\n",
		app.Name, chConn.LocalAddr(), *workers)
	start := time.Now()
	v, err := ch.WaitResult(*timeout)
	if err != nil {
		// What the workers printed may say why (a result too large to send).
		fmt.Print(ch.Output())
		log.Fatalf("phish: %v", err)
	}
	wg.Wait()
	fmt.Printf("phish: done in %v\n", time.Since(start).Round(time.Millisecond))
	if o := ch.Output(); o != "" {
		fmt.Print(o)
	}
	if *stats {
		for _, w := range locals {
			fmt.Printf("  worker %d: %v\n", w.ID(), w.Stats())
		}
	}
	if *traceFlag {
		printTrace(ch, *workers, *traceOut)
	}

	if img, ok := v.([]byte); ok && *out != "" {
		w, h := rayDims(rootArgs)
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("phish: %v", err)
		}
		defer f.Close()
		if err := ray.WritePPM(f, img, w, h); err != nil {
			log.Fatalf("phish: %v", err)
		}
		fmt.Printf("phish: wrote %s (%dx%d)\n", *out, w, h)
		return
	}
	fmt.Println(app.Render(v))
}

// printTrace drains the clearinghouse span collector, reconstructs the
// task DAG, and prints the cluster timeline with its T1/T∞ accounting;
// with outFile it also exports Chrome trace-event JSON.
func printTrace(ch *clearinghouse.Clearinghouse, workers int, outFile string) {
	// Final span batches ride each worker's unregister drain over
	// unreliable UDP; wait for the collector count to turn nonzero and go
	// quiet (bounded, in case every report datagram was lost).
	deadline := time.Now().Add(time.Second)
	last, _ := ch.SpanStats()
	for stable := 0; time.Now().Before(deadline) && stable < 3; {
		time.Sleep(5 * time.Millisecond)
		n, _ := ch.SpanStats()
		if n == last && n > 0 {
			stable++
		} else {
			stable, last = 0, n
		}
	}
	spans := ch.Spans()
	if len(spans) == 0 {
		fmt.Println("phish: trace: no spans collected")
		return
	}
	d := trace.BuildDAG(spans)
	collected, dropped := ch.SpanStats()
	fmt.Printf("phish: trace: %d spans collected, %d dropped\n", collected, dropped)
	fmt.Print(d.RenderTimeline())
	// P is the number of workers that actually recorded spans: remote
	// workers joining via jobmanagers aren't in the -workers count.
	p := len(d.Workers)
	if p < workers {
		p = workers
	}
	fmt.Printf("greedy bound for P=%d: T1/P + Tinf = %v (measured makespan %v)\n",
		p, d.Bound(p).Round(time.Microsecond), d.Makespan.Round(time.Microsecond))
	if outFile != "" {
		js, err := d.ChromeTrace()
		if err != nil {
			log.Printf("phish: trace export: %v", err)
			return
		}
		if err := os.WriteFile(outFile, js, 0o644); err != nil {
			log.Printf("phish: trace export: %v", err)
			return
		}
		fmt.Printf("phish: wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", outFile)
	}
}

// runTop is phishtop: poll the clearinghouse's /cluster.json and redraw a
// live table of the whole job — workers, deque depths, steal and redo
// counts, and latency quantiles. Ctrl-C exits.
func runTop(url string, every time.Duration) {
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/cluster.json"
	// Rates are computed between distinct report generations, not raw
	// polls: totals only move when piggybacked reports arrive (heartbeat
	// cadence), so adjacent polls within one heartbeat window would
	// alias to 0/s. cur is the newest distinct snapshot, prev the one
	// before it.
	var prev, cur *telemetry.ClusterSnapshot
	var prevAt, curAt time.Time
	for {
		cs, err := fetchCluster(url)
		now := time.Now()
		fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		if err != nil {
			fmt.Printf("phishtop: %v (retrying every %v)\n", err, every)
		} else {
			if cur == nil || cs.Totals != cur.Totals {
				prev, prevAt = cur, curAt
				cur, curAt = cs, now
			}
			var dt time.Duration
			if prev != nil {
				dt = curAt.Sub(prevAt)
			}
			fmt.Print(telemetry.RenderTop(*cs, prev, dt))
		}
		time.Sleep(every)
	}
}

func fetchCluster(url string) (*telemetry.ClusterSnapshot, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var cs telemetry.ClusterSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		return nil, fmt.Errorf("decode %s: %v", url, err)
	}
	return &cs, nil
}

// rayDims extracts width/height from ray root args (scene, w, h, ...).
func rayDims(args []types.Value) (int, int) {
	if len(args) >= 3 {
		w, _ := args[1].(int64)
		h, _ := args[2].(int64)
		return int(w), int(h)
	}
	return 0, 0
}
