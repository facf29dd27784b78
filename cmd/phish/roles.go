package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"phish/internal/apps"
	"phish/internal/core"
	"phish/internal/idlesim"
	"phish/internal/jobmanager"
	"phish/internal/jobq"
	"phish/internal/telemetry"
	"phish/internal/types"
	"phish/internal/wire"
)

// exitCodes is the worker's contract with the jobmanager that started it:
// the worker exits with the code for why it left (exitCode), and the
// manager reads the reason back (leaveReason). Any reason not listed exits
// as a crash, and any code not listed reads as one.
var exitCodes = map[wire.LeaveReason]int{
	wire.LeaveJobDone:   0,
	wire.LeaveReclaimed: 3,
	wire.LeaveNoWork:    4,
	wire.LeaveCrash:     5,
}

func exitCode(r wire.LeaveReason) int {
	if code, ok := exitCodes[r]; ok {
		return code
	}
	return exitCodes[wire.LeaveCrash]
}

func leaveReason(code int) wire.LeaveReason {
	for r, c := range exitCodes {
		if c == code {
			return r
		}
	}
	return wire.LeaveCrash
}

// runWorker is the worker role: one worker process of a parallel job over
// UDP. It registers with the job's clearinghouse and participates under
// the micro-level scheduler until the job ends, the owner returns, or its
// steal attempts keep failing (retirement). A jobmanager normally starts
// it; run it by hand to add one machine to a job.
//
// SIGTERM or SIGINT starts the planned drain (DESIGN §5e): the task in
// flight is preempted at its next Yield, the deque is handed to a victim
// the clearinghouse picks, and the worker unregisters; a second signal
// changes nothing. Through a clearinghouse outage the worker keeps
// computing and re-registers with backoff when the clearinghouse is back.
func runWorker(args []string) {
	fs := flag.NewFlagSet("phish worker", flag.ExitOnError)
	chAddr := fs.String("ch", "", "clearinghouse UDP address (required)")
	job := fs.Int64("job", 1, "job id")
	program := fs.String("program", "", "program name (must match the job)")
	workerID := fs.Int("worker", os.Getpid(), "job-unique worker id")
	addr := fs.String("addr", ":0", "local UDP address")
	maxFail := fs.Int("maxfail", 60, "consecutive failed steals before retiring (0 = never)")
	hb := fs.Duration("hb", 5*time.Second, "heartbeat interval (0 disables)")
	seed := fs.Int64("seed", 1, "victim-selection seed")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /healthz on this HTTP address (off when empty); a traced job's spans go to phish's /debug/trace")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits

	if *chAddr == "" || *program == "" {
		fs.Usage()
		os.Exit(exitCode(wire.LeaveCrash))
	}
	apps.RegisterAll()
	prog, err := core.LookupProgram(*program)
	if err != nil {
		log.Fatalf("phish worker: %v", err)
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.MaxStealFailures = *maxFail
	cfg.HeartbeatEvery = *hb
	if *metricsAddr != "" {
		cfg.Metrics = telemetry.NewMetrics()
	}
	w, err := newUDPWorker(types.JobID(*job), types.WorkerID(*workerID), prog, *addr, *chAddr, cfg)
	if err != nil {
		log.Fatalf("phish worker: %v", err)
	}
	if *metricsAddr != "" {
		reg := cfg.Metrics.Reg
		telemetry.RegisterStats(reg, w.Stats, telemetry.Label{Name: "worker", Value: strconv.Itoa(*workerID)})
		defer serveMetrics("phish worker", *metricsAddr, reg).Close()
	}

	// SIGTERM / SIGINT = the owner returned: drain and leave.
	go func() {
		awaitSignal()
		w.Reclaim()
	}()

	fmt.Printf("phish worker: worker %d joining job %d (%s) via %s\n",
		*workerID, *job, *program, *chAddr)
	if err := w.Run(); err != nil {
		log.Printf("phish worker: %v", err)
		os.Exit(exitCode(wire.LeaveCrash))
	}
	s := w.Stats()
	fmt.Printf("phish worker: left (%v) after %v — %v\n", w.LeaveReason(), s.ExecTime.Round(time.Millisecond), s)
	os.Exit(exitCode(w.LeaveReason()))
}

// runJobQ is the jobq role: the PhishJobQ, the macro-level scheduler's job
// pool. Exactly one instance serves a Phish network; jobmanagers on idle
// workstations request jobs from it, and the launcher submits jobs to it.
// With -state, the pool is journaled to the named file: submitted jobs
// survive a crash or restart of the queue, coming back under their
// original ids.
func runJobQ(args []string) {
	fs := flag.NewFlagSet("phish jobq", flag.ExitOnError)
	addr := fs.String("addr", ":7070", "TCP address to listen on")
	state := fs.String("state", "", "pool log file; submitted jobs survive restarts")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /healthz on this HTTP address (off when empty)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits

	var pool *jobq.Pool
	if *state != "" {
		var err error
		pool, err = jobq.NewDurablePool(*state)
		if err != nil {
			log.Fatalf("phish jobq: %v", err)
		}
		defer pool.CloseStore()
		if n := pool.Len(); n > 0 {
			fmt.Printf("phish jobq: recovered %d pending job(s) from %s\n", n, *state)
		}
	} else {
		pool = jobq.NewPool()
	}
	srv, err := jobq.NewServer(pool, *addr)
	if err != nil {
		log.Fatalf("phish jobq: %v", err)
	}
	fmt.Printf("phish jobq: serving the job pool on %s\n", srv.Addr())

	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		st := srv.Stats()
		reg.CounterFunc("phish_jobq_requests_total", "Job requests dispatched.", st.Requests.Load)
		reg.CounterFunc("phish_jobq_grants_total", "Job requests answered with a job.", st.Grants.Load)
		reg.CounterFunc("phish_jobq_submits_total", "Jobs submitted.", st.Submits.Load)
		reg.CounterFunc("phish_jobq_dones_total", "Jobs retired as done.", st.Dones.Load)
		reg.CounterFunc("phish_jobq_lists_total", "Pool listings served.", st.Lists.Load)
		reg.GaugeFunc("phish_jobq_pending_jobs", "Jobs currently waiting in the pool.",
			func() int64 { return int64(pool.Len()) })
		defer serveMetrics("phish jobq", *metricsAddr, reg).Close()
	}

	awaitSignal()
	fmt.Println("phish jobq: shutting down")
	if err := srv.Close(); err != nil {
		log.Fatalf("phish jobq: close: %v", err)
	}
}

// runJobManager is the jobmanager role: the per-workstation daemon of the
// macro-level scheduler. It watches the owner's idleness policy; when the
// workstation goes idle it requests a job from the PhishJobQ and starts a
// worker for it — this same binary, as `phish worker` — and when the owner
// returns it kills the worker (SIGTERM, which the worker turns into a
// graceful migration). The policy is always (a dedicated machine), load
// (idle while the 1-minute load average is below -load-max) or sim
// (synthetic owner activity, for demos).
func runJobManager(args []string) {
	fs := flag.NewFlagSet("phish jobmanager", flag.ExitOnError)
	jobqAddr := fs.String("jobq", "127.0.0.1:7070", "PhishJobQ address")
	ws := fs.Int("ws", 1, "workstation id (unique across the Phish network)")
	policyName := fs.String("policy", "always", "idleness policy: always, load, sim")
	loadMax := fs.Float64("load-max", 0.5, "load policy: idle while loadavg < this")
	simBusy := fs.Duration("sim-busy", time.Minute, "sim policy: mean busy period")
	simIdle := fs.Duration("sim-idle", 2*time.Minute, "sim policy: mean idle period")
	busyPoll := fs.Duration("busy-poll", 5*time.Minute, "idleness re-check while the owner is active (paper: 5m)")
	idleRetry := fs.Duration("idle-retry", 30*time.Second, "longest a job request is held while the pool is empty (paper: 30s retry)")
	workPoll := fs.Duration("work-poll", 2*time.Second, "owner-return check while a worker runs (paper: 2s)")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /healthz on this HTTP address (off when empty)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits

	policy, err := buildPolicy(*policyName, *loadMax, *simBusy, *simIdle)
	if err != nil {
		log.Fatalf("phish jobmanager: %v", err)
	}
	self, err := os.Executable()
	if err != nil {
		log.Fatalf("phish jobmanager: %v", err)
	}

	cli := jobq.NewClient(*jobqAddr)
	defer cli.Close()

	cfg := jobmanager.DefaultConfig()
	cfg.BusyPoll = *busyPoll
	cfg.IdleRetry = *idleRetry
	cfg.WorkPoll = *workPoll
	mgr := jobmanager.New(types.WorkstationID(*ws), policy, cli,
		&execRunner{bin: self}, cfg)

	fmt.Printf("phish jobmanager: workstation %d, policy %s, jobq %s\n", *ws, *policyName, *jobqAddr)
	go mgr.Run()

	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		st := mgr.Stats()
		wsLabel := telemetry.Label{Name: "ws", Value: strconv.Itoa(*ws)}
		reg.CounterFunc("phish_jm_jobs_started_total", "Workers launched.", st.JobsStarted.Load, wsLabel)
		reg.CounterFunc("phish_jm_reclaims_total", "Workers killed because the owner returned.", st.Reclaims.Load, wsLabel)
		reg.CounterFunc("phish_jm_finished_total", "Workers that ended with the job done.", st.Finished.Load, wsLabel)
		reg.CounterFunc("phish_jm_retired_total", "Workers that left because parallelism shrank.", st.Retired.Load, wsLabel)
		reg.CounterFunc("phish_jm_empty_polls_total", "Job requests that found the pool empty.", st.EmptyPolls.Load, wsLabel)
		reg.CounterFunc("phish_jm_source_errors_total", "Job requests that failed outright.", st.SourceErrors.Load, wsLabel)
		defer serveMetrics("phish jobmanager", *metricsAddr, reg).Close()
	}

	awaitSignal()
	fmt.Println("phish jobmanager: shutting down")
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

// execRunner starts worker processes: bin, the binary the manager runs
// from, in its worker role.
type execRunner struct{ bin string }

// execProc supervises one worker process.
type execProc struct {
	cmd    *exec.Cmd
	done   chan struct{}
	reason wire.LeaveReason
}

func (p *execProc) Reclaim()                      { _ = p.cmd.Process.Signal(syscall.SIGTERM) }
func (p *execProc) Done() <-chan struct{}         { return p.done }
func (p *execProc) LeaveReason() wire.LeaveReason { return p.reason }

func (r *execRunner) Start(spec wire.JobSpec, id types.WorkerID) (jobmanager.WorkerProc, error) {
	cmd := exec.Command(r.bin, "worker",
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
		// A process that did not exit on its own (a signal, a failed wait)
		// has exit code -1: a crash.
		_ = cmd.Wait()
		p.reason = leaveReason(cmd.ProcessState.ExitCode())
	}()
	return p, nil
}

// runTop is the top role: poll a job's /cluster.json (served by phish
// -metrics) and redraw a live table of the whole job — workers, deque
// depths, steal and redo counts, and latency quantiles. Ctrl-C exits.
func runTop(args []string) {
	fs := flag.NewFlagSet("phish top", flag.ExitOnError)
	every := fs.Duration("interval", 2*time.Second, "poll interval")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: phish top [-interval d] URL   (e.g. http://host:9090)")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args) // ExitOnError: a bad flag exits
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	url := fs.Arg(0)
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
			fmt.Printf("phish top: %v (retrying every %v)\n", err, *every)
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
		time.Sleep(*every)
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
