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
//	phish -workers 0 -ch-addr :7171 -journal job.jnl pfold 21
//	                                 # a standalone clearinghouse
//
// With -workers 0 the process is the job's clearinghouse alone, waiting for
// workers to register. With -journal it logs the clearinghouse's
// control-plane state to the named file; the same command run again after
// a crash finds the file and resumes the job from it, and surviving workers
// re-register on their own.
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
	jobFlag := flag.Int64("job", 0, "job id (0 = derive one from the clock)")
	workers := flag.Int("workers", 1, "local workers to start immediately (0 = run the clearinghouse alone)")
	out := flag.String("out", "", "write a ray image result to this PPM file")
	timeout := flag.Duration("timeout", 0, "give up after this long (0 = wait forever)")
	stats := flag.Bool("stats", false, "print per-worker scheduling statistics at the end")
	journal := flag.String("journal", "", "journal the clearinghouse's state to this file for crash recovery (an existing file resumes its job)")
	update := flag.Duration("update", 15*time.Second, "membership update push interval; workers are declared dead after twice this without a heartbeat")
	ckptFile := flag.String("checkpoint", "", "periodically checkpoint the job to this file")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "checkpoint interval")
	restore := flag.String("restore", "", "resume the job from this checkpoint file instead of starting fresh")
	metricsAddr := flag.String("metrics", "", "serve the job's telemetry rollup at /metrics and /cluster.json, its collected span timeline at /debug/trace (with -trace), and /healthz, on this HTTP address (off when empty)")
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

	// The job comes from the journal of an interrupted run, else from a
	// checkpoint, else from the command line.
	var rec *clearinghouse.RecoveredJob
	var cp *clearinghouse.JobCheckpoint
	var spec wire.JobSpec
	switch {
	case *journal != "" && fileExists(*journal):
		var err error
		if rec, err = clearinghouse.ReplayJournal(*journal); err != nil {
			log.Fatalf("phish: replay %s: %v", *journal, err)
		}
		spec = rec.Spec
	case *restore != "":
		f, err := os.Open(*restore)
		if err != nil {
			log.Fatalf("phish: %v", err)
		}
		cp, err = clearinghouse.ReadCheckpoint(f)
		f.Close()
		if err != nil {
			log.Fatalf("phish: %v", err)
		}
		spec = cp.Spec
	case flag.NArg() < 1:
		flag.Usage()
		os.Exit(2)
	default:
		app, err := apps.Lookup(flag.Arg(0))
		if err != nil {
			log.Fatalf("phish: %v", err)
		}
		rootArgs, err := app.ParseArgs(flag.Args()[1:])
		if err != nil {
			log.Fatalf("phish: %v", err)
		}
		spec = wire.JobSpec{Name: app.Name, Program: app.Name, RootFn: app.Root, RootArgs: rootArgs}
		spec.ID = types.JobID(*jobFlag)
		if spec.ID == 0 {
			spec.ID = types.JobID(time.Now().UnixNano()&0x7fffffff | 1)
		}
	}
	app, err := apps.Lookup(spec.Program)
	if err != nil {
		log.Fatalf("phish: %v", err)
	}
	jobID := spec.ID

	// Start the clearinghouse on this workstation.
	chConn, err := phishnet.ListenUDP(jobID, types.ClearinghouseID, *chAddr)
	if err != nil {
		log.Fatalf("phish: %v", err)
	}
	// Closing flushes what the clearinghouse sent last, the job's Shutdown
	// among it, before the process exits.
	defer chConn.Close()
	spec.CHAddr = chConn.LocalAddr()
	chCfg := clearinghouse.DefaultConfig()
	chCfg.UpdateEvery = *update
	chCfg.HeartbeatTimeout = 2 * *update
	chCfg.PhiThreshold = *phi
	chCfg.SuspectDrainAfter = *drainAfter
	if *metricsAddr != "" {
		chCfg.Metrics = telemetry.NewMetrics()
	}
	if *journal != "" {
		jnl, err := clearinghouse.OpenJournal(*journal)
		if err != nil {
			log.Fatalf("phish: %v", err)
		}
		defer jnl.Close()
		chCfg.Journal = jnl
	}
	var ch *clearinghouse.Clearinghouse
	// Local workers take ids clear of every id a checkpoint bundle or a
	// journaled member may carry, so none of them is mistaken for an
	// earlier incarnation.
	idBase := 0
	switch {
	case rec != nil:
		rec.Spec = spec
		ch = clearinghouse.NewFromRecovery(rec, chConn, chCfg)
		idBase = 1 << 30
		for _, m := range rec.Members {
			if int(m.Info.Worker) >= idBase {
				idBase = int(m.Info.Worker) + 1
			}
		}
		fmt.Printf("phish: recovered job %d (%s) from %s — %d member(s) journaled\n",
			spec.ID, spec.Name, *journal, len(rec.Members))
	case cp != nil:
		cp.Spec = spec
		ch = clearinghouse.NewFromCheckpoint(cp, chConn, chCfg)
		idBase = 1 << 30
		fmt.Printf("phish: resuming job %d (%s) from %s (%d state bundles)\n",
			spec.ID, spec.Name, *restore, len(cp.States))
	default:
		ch = clearinghouse.New(spec, chConn, chCfg)
	}
	if *metricsAddr != "" {
		chConn.Instrument(ch.Counters(), chCfg.Metrics, nil)
	}
	go ch.Run()
	defer ch.Stop()

	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr, nil)
		if err != nil {
			log.Fatalf("phish: %v", err)
		}
		defer srv.Close()
		// Process-level health rides next to the cluster rollup: build
		// identity, goroutines, heap and GC pauses.
		preg := telemetry.NewRegistry()
		telemetry.RegisterRuntime(preg)
		srv.Handle("/metrics", telemetry.ClusterMetricsWithProcessHandler(ch.ClusterSnapshot, preg))
		srv.Handle("/cluster.json", telemetry.ClusterJSONHandler(ch.ClusterSnapshot))
		srv.Handle("/debug/trace", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			collected, dropped := ch.SpanStats()
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "# %d span(s) collected, %d dropped\n", collected, dropped)
			fmt.Fprint(w, trace.BuildDAG(ch.Spans()).RenderTimeline())
		}))
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
	// Six heartbeats to a heartbeat timeout.
	cfg.HeartbeatEvery = *update / 3
	cfg.StealTimeout = time.Second
	cfg.StealBackoff = 5 * time.Millisecond
	if *metricsAddr != "" && cfg.HeartbeatEvery > 2*time.Second {
		// Faster piggybacked reports so phishtop tracks the local workers
		// closely; each worker gets its own histogram set.
		cfg.HeartbeatEvery = 2 * time.Second
	}
	var wg sync.WaitGroup
	locals := make([]*core.Worker, 0, *workers)
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
		conn.Instrument(w.Counters(), wcfg.Metrics, w.RecordSpan)
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
		w, h := rayDims(spec.RootArgs)
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

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
