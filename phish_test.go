package phish_test

import (
	"sync"
	"testing"
	"time"

	"phish"
	"phish/internal/apps/fib"
	"phish/internal/clearinghouse"
	"phish/internal/clock"
	"phish/internal/core"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

func TestRunLocalDefaults(t *testing.T) {
	res, err := phish.RunLocal(fib.Program(), fib.Root, fib.RootArgs(12), phish.LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Value.(int64), fib.Serial(12); got != want {
		t.Errorf("fib(12) = %d, want %d", got, want)
	}
	if len(res.Workers) != 1 {
		t.Errorf("default workers = %d, want 1", len(res.Workers))
	}
	if res.Totals.TasksExecuted != fib.TaskCount(12) {
		t.Errorf("tasks = %d, want %d", res.Totals.TasksExecuted, fib.TaskCount(12))
	}
}

func TestRunLocalUnknownRootFails(t *testing.T) {
	if _, err := phish.RunLocal(fib.Program(), "no-such-fn", nil, phish.LocalOptions{}); err == nil {
		t.Fatal("unknown root function accepted")
	}
}

func TestRunLocalWithLatency(t *testing.T) {
	// 1 ms of injected one-way latency must not change the answer — only
	// a handful of messages are sent (the paper's whole point).
	res, err := phish.RunLocal(fib.Program(), fib.Root, fib.RootArgs(16),
		phish.LocalOptions{Workers: 3, Latency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Value.(int64), fib.Serial(16); got != want {
		t.Errorf("fib(16) = %d, want %d", got, want)
	}
}

func TestSpeedupFromTimes(t *testing.T) {
	t1 := 100 * time.Second
	perfect := []time.Duration{25 * time.Second, 25 * time.Second, 25 * time.Second, 25 * time.Second}
	if got := phish.SpeedupFromTimes(t1, perfect); got != 4 {
		t.Errorf("perfect 4-way speedup = %v, want 4", got)
	}
	half := []time.Duration{50 * time.Second, 50 * time.Second, 50 * time.Second, 50 * time.Second}
	if got := phish.SpeedupFromTimes(t1, half); got != 2 {
		t.Errorf("half-efficient speedup = %v, want 2", got)
	}
	if got := phish.SpeedupFromTimes(t1, nil); got != 0 {
		t.Errorf("empty speedup = %v, want 0", got)
	}
}

func TestTaskPanicDoesNotKillProcess(t *testing.T) {
	prog := phish.NewProgram("panicky")
	prog.Register("boom", func(c phish.TaskCtx) { panic("kaboom") })
	_, err := phish.RunLocal(prog, "boom", nil, phish.LocalOptions{Workers: 1, Timeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("a job whose only task panics cannot succeed")
	}
}

// TestUDPJobEndToEnd runs a complete distributed job over real UDP
// sockets on localhost: a clearinghouse and three worker processes' worth
// of endpoints, exactly as the cmd/ binaries wire them. The steal
// assertion needs the job to outlive thief registration, so it retries
// with a bigger input if the first run finishes too fast to be stolen
// from.
func TestUDPJobEndToEnd(t *testing.T) {
	for _, n := range []int64{26, 29} {
		if udpJobOnce(t, n) {
			return
		}
	}
	t.Error("no steals in any run; over UDP the work never spread")
}

// udpJobOnce runs fib(n) over UDP, failing the test on correctness
// violations; it reports whether any steal happened.
func udpJobOnce(t *testing.T, n int64) bool {
	const jobID types.JobID = 7
	spec := wire.JobSpec{ID: jobID, Name: "fib", Program: "fib",
		RootFn: fib.Root, RootArgs: fib.RootArgs(n)}

	chConn, err := phishnet.ListenUDP(jobID, types.ClearinghouseID, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chCfg := clearinghouse.DefaultConfig()
	chCfg.UpdateEvery = 100 * time.Millisecond
	ch := clearinghouse.New(spec, chConn, chCfg)
	go ch.Run()
	defer ch.Stop()

	cfg := core.DefaultConfig()
	cfg.StealTimeout = 300 * time.Millisecond
	cfg.StealBackoff = time.Millisecond

	var wg sync.WaitGroup
	workers := make([]*core.Worker, 3)
	for i := range workers {
		conn, err := phishnet.ListenUDP(jobID, types.WorkerID(i+1), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn.SetPeer(types.ClearinghouseID, chConn.LocalAddr())
		workers[i] = core.NewWorker(jobID, types.WorkerID(i+1), fib.Program(), conn, cfg, clock.System)
		wg.Add(1)
		go func(w *core.Worker) {
			defer wg.Done()
			_ = w.Run()
		}(workers[i])
	}

	v, err := ch.WaitResult(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	ch.Stop()
	if got, want := v.(int64), fib.Serial(n); got != want {
		t.Errorf("fib(%d) over UDP = %d, want %d", n, got, want)
	}
	var tasks, stolen int64
	for _, w := range workers {
		s := w.Stats()
		tasks += s.TasksExecuted
		stolen += s.TasksStolen
	}
	if tasks != fib.TaskCount(n) {
		t.Errorf("tasks executed over UDP = %d, want %d", tasks, fib.TaskCount(n))
	}
	return stolen > 0
}

func TestResultsIdenticalAcrossDisciplines(t *testing.T) {
	// Every ablation discipline must compute the same answer.
	configs := map[string]phish.WorkerConfig{}
	base := phish.DefaultWorkerConfig()
	configs["paper"] = base
	fifo := base
	fifo.LocalOrder = phish.FIFO
	configs["fifo-local"] = fifo
	head := base
	head.StealFrom = phish.StealHead
	configs["steal-head"] = head
	rr := base
	rr.Victim = phish.RoundRobinVictim
	configs["round-robin"] = rr

	want := fib.Serial(17)
	for name, cfg := range configs {
		res, err := phish.RunLocal(fib.Program(), fib.Root, fib.RootArgs(17),
			phish.LocalOptions{Workers: 4, Config: cfg})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := res.Value.(int64); got != want {
			t.Errorf("%s: fib(17) = %d, want %d", name, got, want)
		}
		if got := res.Totals.TasksExecuted; got != fib.TaskCount(17) {
			t.Errorf("%s: tasks = %d, want %d", name, got, fib.TaskCount(17))
		}
	}
}

func TestTraceRecordsStealProtocol(t *testing.T) {
	cfg := phish.DefaultWorkerConfig()
	cfg.SpanTrace = true
	cfg.SpanBuf = 1 << 17 // fib(22) outruns the default buffer between reports
	res, err := phish.RunLocal(fib.Program(), fib.Root, fib.RootArgs(22),
		phish.LocalOptions{Workers: 4, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpansDropped != 0 {
		t.Fatalf("%d spans dropped; the counts below would be short", res.SpansDropped)
	}
	var adopts, grants, registers int64
	var leaves []wire.Span
	for _, sp := range res.Spans {
		switch sp.Kind {
		case wire.SpanStealAdopt:
			adopts++
		case wire.SpanStealGrant:
			grants++
		case wire.SpanRegister:
			registers++
		case wire.SpanLeave:
			leaves = append(leaves, sp)
		}
	}
	if adopts != res.Totals.TasksStolen {
		t.Errorf("trace shows %d adoptions, counters say %d steals", adopts, res.Totals.TasksStolen)
	}
	// A batched grant records one grant span per closure (per steal
	// record), as it records one adoption per closure: every adoption still
	// has its grant, and a grant whose reply was lost has none.
	if grants < adopts {
		t.Errorf("grants (%d) < adoptions (%d)", grants, adopts)
	}
	if registers != 4 {
		t.Errorf("trace shows %d registrations, want 4", registers)
	}
	if len(leaves) != 4 {
		t.Errorf("trace shows %d leaves, want 4", len(leaves))
	}
	for _, sp := range leaves {
		if r := wire.LeaveReason(sp.Link.Seq); r != wire.LeaveJobDone {
			t.Errorf("w%d left %v, want %v", sp.Worker, r, wire.LeaveJobDone)
		}
	}
}
