// Command phishjobmanager is the per-workstation daemon of the macro-level
// scheduler. It watches the owner's idleness policy; when the workstation
// goes idle it requests a job from the PhishJobQ and starts a phishworker
// process for it, and when the owner returns it kills the worker (SIGTERM,
// which the worker turns into a graceful migration).
//
// Usage:
//
//	phishjobmanager -jobq host:7070 -ws 3 [-policy always|load|sim]
//
// Policies:
//
//	always — the workstation is always available (dedicated machine)
//	load   — available while the 1-minute load average is below -load-max
//	sim    — synthetic owner activity (for demos; see -sim-* flags)
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"phish/internal/idlesim"
	"phish/internal/jobmanager"
	"phish/internal/jobq"
	"phish/internal/telemetry"
	"phish/internal/types"
	"phish/internal/wire"
)

func main() {
	jobqAddr := flag.String("jobq", "127.0.0.1:7070", "PhishJobQ address")
	ws := flag.Int("ws", 1, "workstation id (unique across the Phish network)")
	policyName := flag.String("policy", "always", "idleness policy: always, load, sim")
	loadMax := flag.Float64("load-max", 0.5, "load policy: idle while loadavg < this")
	simBusy := flag.Duration("sim-busy", time.Minute, "sim policy: mean busy period")
	simIdle := flag.Duration("sim-idle", 2*time.Minute, "sim policy: mean idle period")
	workerBin := flag.String("worker-bin", "", "path to the phishworker binary (default: next to this binary)")
	busyPoll := flag.Duration("busy-poll", 5*time.Minute, "idleness re-check while the owner is active (paper: 5m)")
	idleRetry := flag.Duration("idle-retry", 30*time.Second, "longest a job request is held while the pool is empty (paper: 30s retry)")
	workPoll := flag.Duration("work-poll", 2*time.Second, "owner-return check while a worker runs (paper: 2s)")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /healthz on this HTTP address (off when empty)")
	flag.Parse()

	policy, err := buildPolicy(*policyName, *loadMax, *simBusy, *simIdle)
	if err != nil {
		log.Fatalf("phishjobmanager: %v", err)
	}
	bin := *workerBin
	if bin == "" {
		self, err := os.Executable()
		if err != nil {
			log.Fatalf("phishjobmanager: %v", err)
		}
		bin = filepath.Join(filepath.Dir(self), "phishworker")
	}
	if _, err := os.Stat(bin); err != nil {
		log.Fatalf("phishjobmanager: worker binary: %v (set -worker-bin)", err)
	}

	cli := jobq.NewClient(*jobqAddr)
	defer cli.Close()

	cfg := jobmanager.DefaultConfig()
	cfg.BusyPoll = *busyPoll
	cfg.IdleRetry = *idleRetry
	cfg.WorkPoll = *workPoll
	mgr := jobmanager.New(types.WorkstationID(*ws), policy, cli,
		&execRunner{bin: bin}, cfg)

	fmt.Printf("phishjobmanager: workstation %d, policy %s, jobq %s\n", *ws, *policyName, *jobqAddr)
	go mgr.Run()

	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntime(reg)
		st := mgr.Stats()
		wsLabel := telemetry.Label{Name: "ws", Value: strconv.Itoa(*ws)}
		reg.CounterFunc("phish_jm_jobs_started_total", "Workers launched.", st.JobsStarted.Load, wsLabel)
		reg.CounterFunc("phish_jm_reclaims_total", "Workers killed because the owner returned.", st.Reclaims.Load, wsLabel)
		reg.CounterFunc("phish_jm_finished_total", "Workers that ended with the job done.", st.Finished.Load, wsLabel)
		reg.CounterFunc("phish_jm_retired_total", "Workers that left because parallelism shrank.", st.Retired.Load, wsLabel)
		reg.CounterFunc("phish_jm_empty_polls_total", "Job requests that found the pool empty.", st.EmptyPolls.Load, wsLabel)
		reg.CounterFunc("phish_jm_source_errors_total", "Job requests that failed outright.", st.SourceErrors.Load, wsLabel)
		msrv, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("phishjobmanager: %v", err)
		}
		defer msrv.Close()
		fmt.Printf("phishjobmanager: telemetry on http://%s/metrics\n", msrv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("phishjobmanager: shutting down")
	mgr.Stop()
}

func buildPolicy(name string, loadMax float64, busy, idle time.Duration) (jobmanager.Policy, error) {
	switch name {
	case "always":
		return idlesim.Always{}, nil
	case "load":
		return jobmanager.LoadThreshold(loadAvg, loadMax), nil
	case "sim":
		return idlesim.NewActivity(time.Now().UnixNano(), time.Now(),
			busy/2, busy*2, idle/2, idle*2, true), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

// loadAvg reads the 1-minute load average (Linux). On failure it reports
// a high load, which errs on the side of the owner.
func loadAvg(time.Time) float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 99
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 99
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 99
	}
	return v
}

// The jobq client holds each job request at the PhishJobQ.
var _ jobmanager.HoldingSource = (*jobq.Client)(nil)

// execRunner starts phishworker processes.
type execRunner struct{ bin string }

// execProc supervises one phishworker process.
type execProc struct {
	cmd    *exec.Cmd
	done   chan struct{}
	reason wire.LeaveReason
}

func (p *execProc) Reclaim()                      { _ = p.cmd.Process.Signal(syscall.SIGTERM) }
func (p *execProc) Done() <-chan struct{}         { return p.done }
func (p *execProc) LeaveReason() wire.LeaveReason { return p.reason }

func (r *execRunner) Start(spec wire.JobSpec, id types.WorkerID) (jobmanager.WorkerProc, error) {
	cmd := exec.Command(r.bin,
		"-ch", spec.CHAddr,
		"-job", strconv.FormatInt(int64(spec.ID), 10),
		"-program", spec.Program,
		"-worker", strconv.Itoa(int(id)),
		"-seed", strconv.FormatInt(int64(id), 10),
	)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &execProc{cmd: cmd, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		err := cmd.Wait()
		switch code := exitCode(err); code {
		case 0:
			p.reason = wire.LeaveJobDone
		case 3:
			p.reason = wire.LeaveReclaimed
		case 4:
			p.reason = wire.LeaveNoWork
		default:
			p.reason = wire.LeaveCrash
		}
	}()
	return p, nil
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}
