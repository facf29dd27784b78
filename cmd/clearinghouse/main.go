// Command clearinghouse runs a standalone clearinghouse for one parallel
// job over UDP. Normally the phish launcher starts the clearinghouse
// itself; this binary exists for setups where the clearinghouse should
// live on a dedicated machine.
//
// Usage:
//
//	clearinghouse -program pfold -addr :7071 [-hb 10s] [-journal job.jnl] [args...]
//
// It prints the job's output and the root result, then exits. With
// -journal, control-plane state is logged to the named file; restarting
// the binary with the same flag resumes an interrupted job — surviving
// workers re-register on their own and the computation carries on.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"phish/internal/apps"
	"phish/internal/clearinghouse"
	"phish/internal/phishnet"
	"phish/internal/telemetry"
	"phish/internal/trace"
	"phish/internal/types"
	"phish/internal/wire"
)

func main() {
	addr := flag.String("addr", ":7071", "UDP address to listen on")
	program := flag.String("program", "", "program to run (fib, nqueens, pfold, ray)")
	job := flag.Int64("job", 1, "job id")
	hb := flag.Duration("hb", -1, "heartbeat timeout for crash detection (default 3x -update; 0 disables)")
	update := flag.Duration("update", 2*time.Minute, "membership update push interval (the paper's 2 minutes)")
	timeout := flag.Duration("timeout", 0, "give up after this long (0 = wait forever)")
	journal := flag.String("journal", "", "journal file for crash recovery (an existing file resumes that job)")
	phi := flag.Float64("phi", 8, "phi-accrual crash threshold (8 ~= 1-1e-8 confidence; 0 falls back to the fixed -hb timeout for everyone)")
	phiSlack := flag.Duration("phi-slack", 0, "acceptable-pause allowance subtracted before phi scoring (0 = the -hb timeout; negative = none)")
	drainAfter := flag.Duration("drain-after", 0, "order a planned drain for a worker graded suspect continuously this long (0 disables)")
	metricsAddr := flag.String("metrics", "", "serve the whole-job rollup at /metrics and /cluster.json on this HTTP address (off when empty)")
	flag.Usage = func() {
		fmt.Println("usage: clearinghouse -program <name> [flags] [program args...]\nprograms:")
		fmt.Print(apps.Usage())
		flag.PrintDefaults()
	}
	flag.Parse()

	app, err := apps.Lookup(*program)
	if err != nil {
		log.Fatalf("clearinghouse: %v", err)
	}
	rootArgs, err := app.ParseArgs(flag.Args())
	if err != nil {
		log.Fatalf("clearinghouse: %v", err)
	}

	conn, err := phishnet.ListenUDP(types.JobID(*job), types.ClearinghouseID, *addr)
	if err != nil {
		log.Fatalf("clearinghouse: %v", err)
	}
	spec := wire.JobSpec{
		ID:       types.JobID(*job),
		Name:     app.Name,
		Program:  app.Name,
		RootFn:   app.Root,
		RootArgs: rootArgs,
		CHAddr:   conn.LocalAddr(),
	}
	cfg := clearinghouse.DefaultConfig()
	cfg.UpdateEvery = *update
	cfg.PhiThreshold = *phi
	cfg.PhiSlack = *phiSlack
	cfg.SuspectDrainAfter = *drainAfter
	if *metricsAddr != "" {
		cfg.Metrics = telemetry.NewMetrics()
		cfg.Trace = trace.NewBuffer(4096)
	}
	if *hb < 0 {
		// Crash detection is on by default, scaled to the update cadence:
		// three missed intervals and the worker is declared dead.
		cfg.HeartbeatTimeout = 3 * *update
	} else {
		cfg.HeartbeatTimeout = *hb
	}

	var ch *clearinghouse.Clearinghouse
	recovered := false
	if *journal != "" {
		if _, statErr := os.Stat(*journal); statErr == nil {
			rec, err := clearinghouse.ReplayJournal(*journal)
			if err != nil {
				log.Fatalf("clearinghouse: replay %s: %v", *journal, err)
			}
			jnl, err := clearinghouse.OpenJournal(*journal)
			if err != nil {
				log.Fatalf("clearinghouse: %v", err)
			}
			defer jnl.Close()
			cfg.Journal = jnl
			ch = clearinghouse.NewFromRecovery(rec, conn, cfg)
			recovered = true
			fmt.Printf("clearinghouse: recovered job %d (%s) from %s — %d member(s) journaled\n",
				rec.Spec.ID, rec.Spec.Name, *journal, len(rec.Members))
		} else {
			jnl, err := clearinghouse.OpenJournal(*journal)
			if err != nil {
				log.Fatalf("clearinghouse: %v", err)
			}
			defer jnl.Close()
			cfg.Journal = jnl
		}
	}
	if ch == nil {
		ch = clearinghouse.New(spec, conn, cfg)
	}
	go ch.Run()
	defer ch.Stop()

	if *metricsAddr != "" {
		conn.Instrument(ch.Counters(), cfg.Metrics, cfg.Trace)
		// Process-level health rides next to the cluster rollup: build
		// identity, goroutines, heap, GC pauses, and trace-ring loss.
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntime(reg)
		if cfg.Trace != nil {
			telemetry.RegisterTraceRing(reg, cfg.Trace)
		}
		srv, err := telemetry.Serve(*metricsAddr, nil, cfg.Trace)
		if err != nil {
			log.Fatalf("clearinghouse: %v", err)
		}
		defer srv.Close()
		snap := ch.ClusterSnapshot
		srv.Handle("/metrics", telemetry.ClusterMetricsWithProcessHandler(snap, reg))
		srv.Handle("/cluster.json", telemetry.ClusterJSONHandler(snap))
		fmt.Printf("clearinghouse: telemetry on http://%s/metrics (phishtop: phish -top http://%s)\n",
			srv.Addr(), srv.Addr())
	}

	if !recovered {
		fmt.Printf("clearinghouse: job %d (%s) on %s — waiting for workers\n",
			spec.ID, spec.Name, conn.LocalAddr())
	}

	v, err := ch.WaitResult(*timeout)
	if err != nil {
		// What the workers printed may say why (a result too large to send).
		fmt.Print(ch.Output())
		log.Fatalf("clearinghouse: %v", err)
	}
	if out := ch.Output(); out != "" {
		fmt.Print(out)
	}
	fmt.Println(app.Render(v))
}
