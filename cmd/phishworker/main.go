// Command phishworker runs one worker process of a parallel job over UDP:
// it registers with the job's clearinghouse and participates under the
// micro-level scheduler until the job ends, the owner returns (SIGTERM →
// graceful drain), or its steal attempts keep failing (retirement).
//
// On SIGTERM/SIGINT the worker runs the planned-drain sequence: the
// in-flight task is preempted at its next Yield (keeping its checkpoint),
// the deque is handed to a clearinghouse-chosen victim, a final StatReport
// is flushed, and the worker unregisters — nothing is dropped on the
// floor. A second signal changes nothing: the worker is already leaving.
//
// It is normally started by phishjobmanager; run it by hand to add one
// machine to a job:
//
//	phishworker -ch host:7071 -job 1 -program pfold -worker 42
//
// A clearinghouse outage is survivable: the worker keeps computing on
// its own deque, re-registers with jittered exponential backoff, and
// resyncs (re-delivering a held root result if it owns one) when a
// recovered clearinghouse comes back on the same address.
//
// The exit code reports why the worker left: 0 job done, 3 reclaimed,
// 4 retired for lack of work, 5 crashed/error.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"phish/internal/apps"
	"phish/internal/clock"
	"phish/internal/core"
	"phish/internal/phishnet"
	"phish/internal/telemetry"
	"phish/internal/types"
	"phish/internal/wire"
)

// Exit codes understood by phishjobmanager.
const (
	exitJobDone   = 0
	exitReclaimed = 3
	exitNoWork    = 4
	exitCrash     = 5
)

func main() {
	chAddr := flag.String("ch", "", "clearinghouse UDP address (required)")
	job := flag.Int64("job", 1, "job id")
	program := flag.String("program", "", "program name (must match the job)")
	workerID := flag.Int("worker", os.Getpid(), "job-unique worker id")
	addr := flag.String("addr", ":0", "local UDP address")
	maxFail := flag.Int("maxfail", 60, "consecutive failed steals before retiring (0 = never)")
	hb := flag.Duration("hb", 5*time.Second, "heartbeat interval (0 disables)")
	seed := flag.Int64("seed", 1, "victim-selection seed")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /healthz on this HTTP address (off when empty); a traced job's spans go to phish's /debug/trace")
	flag.Parse()

	if *chAddr == "" || *program == "" {
		flag.Usage()
		os.Exit(exitCrash)
	}
	apps.RegisterAll()
	prog, err := core.LookupProgram(*program)
	if err != nil {
		log.Fatalf("phishworker: %v", err)
	}

	conn, err := phishnet.ListenUDP(types.JobID(*job), types.WorkerID(*workerID), *addr)
	if err != nil {
		log.Fatalf("phishworker: %v", err)
	}
	conn.SetPeer(types.ClearinghouseID, *chAddr)

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.MaxStealFailures = *maxFail
	cfg.HeartbeatEvery = *hb
	// A real LAN needs more patience than the in-process fabric.
	cfg.StealTimeout = time.Second
	cfg.StealBackoff = 5 * time.Millisecond

	if *metricsAddr != "" {
		cfg.Metrics = telemetry.NewMetrics()
	}

	w := core.NewWorker(types.JobID(*job), types.WorkerID(*workerID), prog, conn, cfg, clock.System)
	// The transport shares the worker's fault counters, backoff histogram
	// and span recorder.
	conn.Instrument(w.Counters(), cfg.Metrics, w.RecordSpan)

	if *metricsAddr != "" {
		reg := cfg.Metrics.Reg
		telemetry.RegisterStats(reg, w.Stats, telemetry.Label{Name: "worker", Value: strconv.Itoa(*workerID)})
		telemetry.RegisterRuntime(reg)
		srv, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("phishworker: %v", err)
		}
		defer srv.Close()
		fmt.Printf("phishworker: telemetry on http://%s/metrics\n", srv.Addr())
	}

	// SIGTERM / SIGINT = the owner returned: drain and leave.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		w.Reclaim()
	}()

	fmt.Printf("phishworker: worker %d joining job %d (%s) via %s\n",
		*workerID, *job, *program, *chAddr)
	if err := w.Run(); err != nil {
		log.Printf("phishworker: %v", err)
		os.Exit(exitCrash)
	}
	s := w.Stats()
	fmt.Printf("phishworker: left (%v) after %v — %v\n", w.LeaveReason(), s.ExecTime.Round(time.Millisecond), s)

	switch w.LeaveReason() {
	case wire.LeaveJobDone:
		os.Exit(exitJobDone)
	case wire.LeaveReclaimed:
		os.Exit(exitReclaimed)
	case wire.LeaveNoWork:
		os.Exit(exitNoWork)
	default:
		os.Exit(exitCrash)
	}
}
