// Command phishjobq runs the PhishJobQ: the macro-level scheduler's job
// pool. Exactly one instance serves a Phish network; PhishJobManagers on
// idle workstations request jobs from it, and the phish launcher submits
// jobs to it.
//
// Usage:
//
//	phishjobq [-addr :7070] [-state jobq.wal]
//
// With -state, the pool is journaled to the named file: submitted jobs
// survive a crash or restart of the queue, coming back under their
// original ids.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"phish/internal/jobq"
	"phish/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":7070", "TCP address to listen on")
	state := flag.String("state", "", "pool log file; submitted jobs survive restarts")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /healthz on this HTTP address (off when empty)")
	flag.Parse()

	var pool *jobq.Pool
	if *state != "" {
		var err error
		pool, err = jobq.NewDurablePool(*state)
		if err != nil {
			log.Fatalf("phishjobq: %v", err)
		}
		defer pool.CloseStore()
		if n := pool.Len(); n > 0 {
			fmt.Printf("phishjobq: recovered %d pending job(s) from %s\n", n, *state)
		}
	} else {
		pool = jobq.NewPool()
	}
	srv, err := jobq.NewServer(pool, *addr)
	if err != nil {
		log.Fatalf("phishjobq: %v", err)
	}
	fmt.Printf("phishjobq: serving the job pool on %s\n", srv.Addr())

	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntime(reg)
		st := srv.Stats()
		reg.CounterFunc("phish_jobq_requests_total", "Job requests dispatched.", st.Requests.Load)
		reg.CounterFunc("phish_jobq_grants_total", "Job requests answered with a job.", st.Grants.Load)
		reg.CounterFunc("phish_jobq_submits_total", "Jobs submitted.", st.Submits.Load)
		reg.CounterFunc("phish_jobq_dones_total", "Jobs retired as done.", st.Dones.Load)
		reg.CounterFunc("phish_jobq_lists_total", "Pool listings served.", st.Lists.Load)
		reg.GaugeFunc("phish_jobq_pending_jobs", "Jobs currently waiting in the pool.",
			func() int64 { return int64(pool.Len()) })
		msrv, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("phishjobq: %v", err)
		}
		defer msrv.Close()
		fmt.Printf("phishjobq: telemetry on http://%s/metrics\n", msrv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("phishjobq: shutting down")
	if err := srv.Close(); err != nil {
		log.Fatalf("phishjobq: close: %v", err)
	}
}
