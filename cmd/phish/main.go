// Command phish is the one binary of a Phish network. Given a program, it
// launches a parallel job the way the paper describes:
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
//
// The same binary is every daemon of the network, so deploying Phish means
// copying one file to each machine. A role name as the first argument picks
// the daemon, which parses its own flags (see roles.go):
//
//	phish jobq [-addr :7070] [-state jobq.wal]
//	phish jobmanager -jobq host:7070 -ws 3
//	phish worker -ch host:7071 -job 1 -program pfold -worker 42
//	phish top [-interval 2s] host:9090
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
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

// roles are the daemons the binary also is, by the first argument's name.
// None is a program name, so a role never shadows a job.
var roles = map[string]func(args []string){
	"jobq":       runJobQ,
	"jobmanager": runJobManager,
	"worker":     runWorker,
	"top":        runTop,
}

func main() {
	if len(os.Args) > 1 {
		if role, ok := roles[os.Args[1]]; ok {
			role(os.Args[2:])
			return
		}
	}
	launch(os.Args[1:])
}

// launch runs a job: its clearinghouse, its first workers, and its
// submission to the PhishJobQ.
func launch(args []string) {
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
	traceFlag := flag.Bool("trace", false, "record a distributed span trace and print the cluster timeline with T1/Tinf accounting at the end")
	traceOut := flag.String("trace-out", "", "also write the trace as Chrome trace-event JSON to this file (implies -trace; open in chrome://tracing or ui.perfetto.dev)")
	traceSample := flag.Float64("trace-sample", 1, "per-root span sampling probability (values outside (0,1) sample everything)")
	flag.Usage = func() {
		fmt.Println("usage: phish [flags] <program> [args...]\n       phish jobq|jobmanager|worker|top [flags] (-h lists a role's flags)\nprograms:")
		fmt.Print(apps.Usage())
		flag.PrintDefaults()
	}
	_ = flag.CommandLine.Parse(args) // ExitOnError: a bad flag exits
	apps.RegisterAll()
	if *traceOut != "" {
		*traceFlag = true
	}

	// The job comes from the journal of an interrupted run, else from a
	// checkpoint, which is a journal too, else from the command line. The
	// checkpoint is only read: the resumed run journals to -journal alone.
	resumeFrom := *restore
	if *journal != "" && fileExists(*journal) {
		resumeFrom = *journal
	}
	var rec *clearinghouse.RecoveredJob
	var spec wire.JobSpec
	switch {
	case resumeFrom != "":
		var err error
		if rec, err = clearinghouse.ReplayJournal(resumeFrom); err != nil {
			log.Fatalf("phish: replay %s: %v", resumeFrom, err)
		}
		spec = rec.Spec
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
	var jnl *clearinghouse.Journal
	if *journal != "" {
		if jnl, err = clearinghouse.OpenJournal(*journal); err != nil {
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
	if rec != nil {
		rec.Spec = spec
		ch = clearinghouse.NewFromRecovery(rec, chConn, chCfg)
		idBase = 1 << 30
		for _, m := range rec.Members {
			if int(m.Info.Worker) >= idBase {
				idBase = int(m.Info.Worker) + 1
			}
		}
		fmt.Printf("phish: recovered job %d (%s) from %s — %d member(s) journaled, %d state bundle(s)\n",
			spec.ID, spec.Name, resumeFrom, len(rec.Members), len(rec.Restore))
	} else {
		ch = clearinghouse.New(spec, chConn, chCfg)
	}
	if *metricsAddr != "" {
		chConn.Instrument(ch.Counters(), chCfg.Metrics, nil)
	}
	go ch.Run()
	defer ch.Stop()

	if *metricsAddr != "" {
		srv := serveMetrics("phish", *metricsAddr, nil)
		defer srv.Close()
		// Process-level health rides next to the cluster rollup: build
		// identity, goroutines, heap and GC pauses.
		preg := telemetry.NewRegistry()
		telemetry.RegisterRuntime(preg)
		srv.Handle("/metrics", telemetry.ClusterMetricsHandler(ch.ClusterSnapshot, preg))
		srv.Handle("/cluster.json", telemetry.ClusterJSONHandler(ch.ClusterSnapshot))
		srv.Handle("/debug/trace", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			collected, dropped := ch.SpanStats()
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "# %d span(s) collected, %d dropped\n", collected, dropped)
			fmt.Fprint(w, trace.BuildDAG(ch.Spans()).RenderTimeline())
		}))
		fmt.Printf("phish: watch live: phish top http://%s\n", srv.Addr())
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
				if err := clearinghouse.WriteJournal(*ckptFile, snap); err != nil {
					log.Printf("phish: checkpoint: %v", err)
					continue
				}
				fmt.Printf("phish: checkpointed %d participants to %s\n", len(snap.Restore), *ckptFile)
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
	if *metricsAddr != "" && cfg.HeartbeatEvery > 2*time.Second {
		// Faster piggybacked reports so phish top tracks the local workers
		// closely; each worker gets its own histogram set.
		cfg.HeartbeatEvery = 2 * time.Second
	}
	if *traceFlag {
		cfg.SpanTrace = true
		cfg.SpanSample = *traceSample
	}
	var wg sync.WaitGroup
	locals := make([]*core.Worker, 0, *workers)
	for i := 0; i < *workers; i++ {
		wcfg := cfg
		if *metricsAddr != "" {
			wcfg.Metrics = telemetry.NewMetrics()
		}
		w, err := newUDPWorker(jobID, types.WorkerID(idBase+i), prog, ":0", chConn.LocalAddr(), wcfg)
		if err != nil {
			log.Fatalf("phish: %v", err)
		}
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
	if jnl != nil {
		if err := jnl.Err(); err != nil {
			fmt.Printf("phish: journal %s stopped recording: %v (a restart would resume from its last good record)\n", *journal, err)
		}
	}
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

// newUDPWorker builds worker id of job on a UDP socket bound to addr, with
// the job's clearinghouse at chAddr. Its transport shares the worker's
// fault counters, backoff histogram and span recorder.
func newUDPWorker(job types.JobID, id types.WorkerID, prog *core.Program, addr, chAddr string, cfg core.Config) (*core.Worker, error) {
	conn, err := phishnet.ListenUDP(job, id, addr)
	if err != nil {
		return nil, err
	}
	conn.SetPeer(types.ClearinghouseID, chAddr)
	// A real LAN needs more patience than the in-process fabric.
	cfg.StealTimeout = time.Second
	cfg.StealBackoff = 5 * time.Millisecond
	w := core.NewWorker(job, id, prog, conn, cfg, clock.System)
	conn.Instrument(w.Counters(), cfg.Metrics, w.RecordSpan)
	return w, nil
}

// serveMetrics serves reg, with the Go runtime's health added to it, at
// /metrics on addr, and /healthz; a nil reg leaves /metrics to the caller.
// role prefixes what it prints.
func serveMetrics(role, addr string, reg *telemetry.Registry) *telemetry.Server {
	if reg != nil {
		telemetry.RegisterRuntime(reg)
	}
	srv, err := telemetry.Serve(addr, reg)
	if err != nil {
		log.Fatalf("%s: %v", role, err)
	}
	fmt.Printf("%s: telemetry on http://%s/metrics\n", role, srv.Addr())
	return srv
}

// awaitSignal blocks until SIGINT or SIGTERM arrives.
func awaitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}
