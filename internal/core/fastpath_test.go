package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"phish/internal/clock"
	"phish/internal/model"
	"phish/internal/phishnet"
	"phish/internal/stats"
	"phish/internal/telemetry"
	"phish/internal/types"
	"phish/internal/wire"
)

// The loop runs an undisturbed worker's tasks without a housekeeping pass
// in between (see Worker.loop). These tests hold the two halves of that
// bargain: whatever needs the scheduler's attention still gets it while the
// deque never empties, and an undisturbed task pays for no clock reading
// and no allocation of the scheduler's own.

// grinder is one worker (id 0) whose clearinghouse is played by the test:
// it answers the registration, spawns the root, refuses to name a drain
// victim, and otherwise only records what the worker sends it. Worker 1 is
// a bare endpoint from which the test sends the worker messages.
type grinder struct {
	w      *Worker
	port   phishnet.Conn // the worker's own endpoint
	peer   phishnet.Conn
	chPort phishnet.Conn

	done    chan struct{}    // closed when Run has returned
	drainAt chan time.Time   // one stamp per DrainRequest the worker sent
	result  chan types.Value // the root result
	reports chan reportAt    // the StatReports that carried checkpoints (dropped when full)
}

// reportAt is a StatReport and when the clearinghouse got it.
type reportAt struct {
	at  time.Time
	rep wire.StatReport
}

func startGrinder(t *testing.T, prog *Program, root string, args []types.Value, cfg Config, clk clock.Clock) *grinder {
	t.Helper()
	fab := phishnet.NewFabric()
	t.Cleanup(fab.Close)
	return startGrinderOn(t, func(id types.WorkerID) phishnet.Conn { return fab.Attach(id) }, prog, root, args, cfg, clk)
}

// startGrinderOn is startGrinder over the transport attach opens endpoints
// on.
func startGrinderOn(t *testing.T, attach func(types.WorkerID) phishnet.Conn, prog *Program, root string, args []types.Value, cfg Config, clk clock.Clock) *grinder {
	t.Helper()
	g := &grinder{
		port:    attach(0),
		peer:    attach(1),
		chPort:  attach(types.ClearinghouseID),
		done:    make(chan struct{}),
		drainAt: make(chan time.Time, 4),
		result:  make(chan types.Value, 1),
		reports: make(chan reportAt, 256),
	}
	// A fabric routes by id and ignores addresses.
	g.port.SetPeer(types.ClearinghouseID, g.chPort.LocalAddr())
	g.port.SetPeer(1, g.peer.LocalAddr())
	g.peer.SetPeer(0, g.port.LocalAddr())
	g.chPort.SetPeer(0, g.port.LocalAddr())
	g.w = NewWorker(1, 0, prog, g.port, cfg, clk)
	go func() {
		spawned := false
		for env := range g.chPort.Recv() {
			if env.Materialize() != nil {
				continue
			}
			switch p := env.Payload.(type) {
			case wire.Register:
				g.toWorker(g.chPort, types.ClearinghouseID, wire.RegisterReply{Assigned: 0,
					View: wire.MembershipView{Epoch: 1, Members: []wire.MemberInfo{{Worker: 0, HostedBy: 0}}}})
				if !spawned {
					spawned = true
					g.toWorker(g.chPort, types.ClearinghouseID, wire.SpawnRoot{Fn: root, Args: args})
				}
			case wire.DrainRequest:
				g.drainAt <- time.Now()
				g.toWorker(g.chPort, types.ClearinghouseID, wire.DrainAck{OK: false})
			case wire.Arg:
				g.result <- p.Val
			case wire.StatReport:
				if len(p.Ckpts) > 0 {
					select {
					case g.reports <- reportAt{time.Now(), p}:
					default:
					}
				}
			}
		}
	}()
	go func() {
		_ = g.w.Run()
		close(g.done)
	}()
	t.Cleanup(func() {
		g.w.Crash()
		<-g.done
	})
	return g
}

// toWorker sends payload to the worker; a send that fails because the
// worker has already gone is the test's business to notice, not this one's.
func (g *grinder) toWorker(from phishnet.Conn, id types.WorkerID, payload any) {
	_ = from.Send(&wire.Envelope{Job: 1, From: id, To: 0, Payload: payload})
}

// waitGrinding returns once the worker is well into its chain.
func (g *grinder) waitGrinding(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); g.w.Stats().TasksExecuted < 200; {
		if time.Now().After(deadline) {
			t.Fatal("worker never started on its chain")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// answersSteal sends the worker a steal request from the peer and holds the
// answer to the honoured bound.
func (g *grinder) answersSteal(t *testing.T) {
	t.Helper()
	t0 := time.Now()
	g.toWorker(g.peer, 1, wire.StealRequest{Thief: 1})
	select {
	case env := <-g.peer.Recv():
		if env.Materialize() != nil {
			t.Fatal("undecodable answer")
		}
		if _, ok := env.Payload.(wire.StealReply); !ok {
			t.Fatalf("thief received %s, want a steal reply", env.PayloadName())
		}
		if d := time.Since(t0); d > honoured {
			t.Errorf("steal request answered after %v, want within %v", d, honoured)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("steal request never answered")
	}
}

func (g *grinder) waitDone(t *testing.T, d time.Duration) {
	t.Helper()
	select {
	case <-g.done:
	case <-time.After(d):
		t.Fatalf("Run did not return within %v", d)
	}
}

// chainProg is core_bench_test's chainbench: every "chain" task spawns the
// next one and a "pass" successor for its result, so the deque holds a
// ready task from the first to the last. body runs at the top of every
// chain task.
func chainProg(body func()) *Program {
	p := NewProgram("chain")
	p.Register("chain", func(c model.Ctx) {
		if body != nil {
			body()
		}
		n := c.Int(0)
		if n == 0 {
			c.Return(int64(0))
			return
		}
		s := c.Successor("pass", 1)
		c.Spawn1("chain", s.Cont(0), n-1)
	})
	p.Register("pass", func(c model.Ctx) { c.Return(c.Int(0)) })
	return p
}

// spin50 is a coarse task body: it holds the processor for 50 µs.
func spin50() {
	for t0 := time.Now(); time.Since(t0) < 50*time.Microsecond; {
	}
}

// honoured is how long a busy worker may take to act on a request: the
// design bound is a millisecond (timedEvery fine-grain tasks, or one coarse
// one); this leaves room for the race detector and a busy machine.
const honoured = 50 * time.Millisecond

// longChain outlasts every test that pokes a grinding worker; none of them
// lets it finish.
const longChain = int64(1) << 20

func TestBusyWorkerStaysLive(t *testing.T) {
	for _, grain := range []struct {
		name string
		body func()
	}{{"fine", nil}, {"coarse", spin50}} {
		start := func(t *testing.T) *grinder {
			g := startGrinder(t, chainProg(grain.body), "chain", []types.Value{longChain}, DefaultConfig(), clock.System)
			g.waitGrinding(t)
			return g
		}
		// A Reclaim or a Drain is honoured when the worker starts to leave:
		// it asks the clearinghouse where to put its tasks.
		leave := func(request func(*Worker)) func(*testing.T) {
			return func(t *testing.T) {
				g := start(t)
				t0 := time.Now()
				request(g.w)
				select {
				case at := <-g.drainAt:
					if d := at.Sub(t0); d > honoured {
						t.Errorf("the worker started to leave after %v, want within %v", d, honoured)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("the request was never honoured")
				}
				g.waitDone(t, 10*time.Second) // nobody to migrate to: it reports itself crashed
			}
		}
		t.Run(grain.name+"/reclaim", leave((*Worker).Reclaim))
		t.Run(grain.name+"/drain", leave((*Worker).Drain))
		t.Run(grain.name+"/crash", func(t *testing.T) {
			g := start(t)
			g.w.Crash()
			g.waitDone(t, honoured)
			// The crash is seen between two tasks, not in a housekeeping
			// pass; Stats after Run counts every task all the same.
			if s := g.w.Stats(); s.TasksExecuted != g.w.tasks.executed || s.MaxTasksInUse != g.w.tasks.maxInUse {
				t.Errorf("Stats after Run: %d executed, %d max in use; the worker counted %d, %d",
					s.TasksExecuted, s.MaxTasksInUse, g.w.tasks.executed, g.w.tasks.maxInUse)
			}
		})
		t.Run(grain.name+"/steal-request", func(t *testing.T) {
			start(t).answersSteal(t)
		})
		t.Run(grain.name+"/conn-closed", func(t *testing.T) {
			// No Shutdown message: the inbox just closes, and a closed empty
			// channel looks idle to the attention check. The housekeeping
			// pass is what finds out.
			g := start(t)
			g.port.Close()
			g.waitDone(t, 5*time.Second)
		})
		t.Run(grain.name+"/clearinghouse-down", func(t *testing.T) {
			g := start(t)
			g.chPort.Close()
			// The worker's answer to a snapshot request goes to the
			// clearinghouse, which is gone: the failed send arms the
			// re-register loop.
			g.toWorker(g.peer, 1, wire.SnapshotRequest{Seq: 1})
			for deadline := time.Now().Add(5 * time.Second); g.w.Counters().ReRegistrations.Load() == 0; {
				if time.Now().After(deadline) {
					t.Fatal("no re-registration attempt: the outage was never attended to")
				}
				time.Sleep(time.Millisecond)
			}
			// ... without the worker having run dry: it is still executing.
			n := g.w.Stats().TasksExecuted
			for deadline := time.Now().Add(5 * time.Second); g.w.Stats().TasksExecuted == n; {
				if time.Now().After(deadline) {
					t.Fatal("the worker stopped executing its chain")
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// The same over UDP, where nobody but the worker reads the worker's socket:
// a long body that only ever yields still answers a steal request, because
// Yield looks at the socket as well as at the inbox — at every Yield of a
// timed attempt (a coarse or still-unknown Fn), at every timedEvery-th of an
// untimed one (a warm fine-grain Fn, whose Yields come microseconds apart
// and must not each cost a system call).
func TestYieldingWorkerOverUDPStaysLive(t *testing.T) {
	listen := func(id types.WorkerID) phishnet.Conn {
		u, err := phishnet.ListenUDP(1, id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { u.Close() })
		return u
	}
	forever := func(c model.Ctx, work func()) {
		for {
			work()
			if c.Yield(nil) {
				return
			}
		}
	}
	timed := NewProgram("long")
	timed.Register("long", func(c model.Ctx) { forever(c, spin50) })
	// Thirty quick executions warm the Fn's track far below fineGrain; the
	// thirty-first never returns. It is the 23rd since the last timed one,
	// so its attempt is untimed and its Yields come a few hundred
	// nanoseconds apart.
	untimed := NewProgram("quick")
	untimed.Register("quick", func(c model.Ctx) {
		if n := c.Int(0); n > 0 {
			s := c.Successor("never", 1)
			c.Spawn1("quick", s.Cont(0), n-1)
			return
		}
		forever(c, func() {})
	})
	untimed.Register("never", func(c model.Ctx) { c.Return(c.Int(0)) })
	for _, tc := range []struct {
		name string
		prog *Program
		args []types.Value
	}{{"timed", timed, nil}, {"untimed", untimed, []types.Value{int64(30)}}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "untimed" && raceEnabled {
				t.Skip("an empty task is not fine-grain under the race detector")
			}
			g := startGrinderOn(t, listen, tc.prog, tc.prog.Name, tc.args, DefaultConfig(), clock.System)
			for deadline := time.Now().Add(10 * time.Second); g.w.Stats().CkptSaves < 100; {
				if time.Now().After(deadline) {
					t.Fatal("the long task never got going")
				}
				time.Sleep(100 * time.Microsecond)
			}
			g.answersSteal(t)
		})
	}
}

// Telemetry and tracing, when on, still see every task: the sampling of
// the clock applies to nobody who asked for all of it. Neither does the
// folding of the task counters: Stats counts every task once Run returns.
func TestEveryTaskObservedWhenAsked(t *testing.T) {
	for _, grain := range []struct {
		name  string
		body  func()
		chain int64
	}{{"fine", nil, 1 << 15}, {"coarse", spin50, 200}} {
		tasks := 2*grain.chain + 1
		t.Run(grain.name+"/metrics", func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Metrics = telemetry.NewMetrics()
			g := startGrinder(t, chainProg(grain.body), "chain", []types.Value{grain.chain}, cfg, clock.System)
			g.finish(t)
			if got := g.w.Stats().TasksExecuted; got != tasks {
				t.Fatalf("tasks executed = %d, want %d", got, tasks)
			}
			if got := cfg.Metrics.TaskExec().Count(); got != tasks {
				t.Errorf("TaskExec observed %d executions of %d", got, tasks)
			}
		})
		t.Run(grain.name+"/spans", func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SpanTrace = true
			cfg.SpanBuf = 1 << 17
			cfg.HeartbeatEvery = 0 // nothing ships the spans away
			g := startGrinder(t, chainProg(grain.body), "chain", []types.Value{grain.chain}, cfg, clock.System)
			g.finish(t)
			execs := int64(0)
			for _, s := range g.w.spans.Load().pending {
				if s.Kind == wire.SpanExec {
					execs++
				}
			}
			if execs != tasks {
				t.Errorf("%d exec spans for %d tasks", execs, tasks)
			}
		})
		t.Run(grain.name+"/stats", func(t *testing.T) {
			// Stats read from another goroutine, as the heartbeat's reports
			// are, lags the worker by up to a housekeeping pass but never
			// goes backwards; once Run has returned it is exact.
			g := startGrinder(t, chainProg(grain.body), "chain", []types.Value{grain.chain}, DefaultConfig(), clock.System)
			stop, backwards := make(chan struct{}), make(chan string, 1)
			go func() {
				defer close(backwards)
				var prev stats.Snapshot
				for {
					select {
					case <-stop:
						return
					default:
					}
					s := g.w.Stats()
					if s.TasksExecuted < prev.TasksExecuted || s.TasksSpawned < prev.TasksSpawned ||
						s.Synchronizations < prev.Synchronizations || s.MaxTasksInUse < prev.MaxTasksInUse {
						backwards <- fmt.Sprintf("%+v after %+v", s, prev)
						return
					}
					prev = s
				}
			}()
			g.finish(t)
			close(stop)
			if msg, ok := <-backwards; ok {
				t.Errorf("Stats went backwards: %s", msg)
			}
			// Every chain task but the last leaves one "pass" successor
			// waiting, and the working set peaks at those plus the running
			// task and the child it just spawned.
			s := g.w.Stats()
			got := []int64{s.TasksExecuted, s.TasksSpawned, s.Synchronizations, s.MaxTasksInUse}
			want := []int64{tasks, tasks, grain.chain, grain.chain + 2}
			if !slices.Equal(got, want) {
				t.Errorf("executed, spawned, synchronizations, max in use = %v after Run, want %v", got, want)
			}
		})
	}
}

// finish waits for the root result and then crashes the worker, so that
// what it recorded stays where the test can read it.
func (g *grinder) finish(t *testing.T) {
	t.Helper()
	select {
	case <-g.result:
	case <-time.After(60 * time.Second):
		t.Fatal("no root result")
	}
	g.w.Crash()
	g.waitDone(t, 10*time.Second)
}

// An Fn at or above fineGrain is timed on every execution — its track is
// what the speculation deadline is computed from — while a warm Fn below it
// is sampled.
func TestCoarseFnIsTimedEveryExecution(t *testing.T) {
	const chain = 400
	g := startGrinder(t, chainProg(spin50), "chain", []types.Value{int64(chain)}, DefaultConfig(), clock.System)
	g.finish(t)
	if got := g.w.fns.entry("chain").exec.n; got != chain+1 {
		t.Errorf("the coarse Fn's track has %d samples of %d executions", got, chain+1)
	}
	if raceEnabled {
		return // an empty task is not fine-grain under the race detector
	}
	if got := g.w.fns.entry("pass").exec.n; got < execWarmup || got > chain/2 {
		t.Errorf("the fine Fn's track has %d samples of %d executions, want a warm sample", got, chain)
	}
}

// fibProg is the doubly recursive fib of internal/apps/fib, local to this
// package.
func fibProg() *Program {
	p := NewProgram("fib")
	p.Register("fib", func(c model.Ctx) {
		n := c.Int(0)
		if n < 2 {
			c.Return(n)
			return
		}
		s := c.Successor("sum", 2)
		c.Spawn1("fib", s.Cont(0), n-1)
		c.Spawn1("fib", s.Cont(1), n-2)
	})
	p.Register("sum", func(c model.Ctx) { c.Return(c.Int(0) + c.Int(1)) })
	return p
}

// countingClock counts the readings taken through it.
type countingClock struct {
	clock.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.Clock.Now()
}

func (c *countingClock) Since(t time.Time) time.Duration {
	c.reads.Add(1)
	return c.Clock.Since(t)
}

// fib20 runs fib(20) on one worker with telemetry and tracing off and
// returns the scheduler's clock readings, the process's allocations and the
// Fn table's memo misses over the job, with the task count.
func fib20(t *testing.T) (reads, mallocs, misses, tasks int64) {
	t.Helper()
	clk := &countingClock{Clock: clock.System}
	cfg := DefaultConfig()
	cfg.HeartbeatEvery = 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g := startGrinder(t, fibProg(), "fib", []types.Value{int64(20)}, cfg, clk)
	select {
	case v := <-g.result:
		if v != int64(6765) {
			t.Fatalf("fib(20) = %v", v)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("no root result")
	}
	runtime.ReadMemStats(&m1)
	g.w.Crash()
	g.waitDone(t, 10*time.Second)
	return clk.reads.Load(), int64(m1.Mallocs - m0.Mallocs), g.w.fns.misses, g.w.Stats().TasksExecuted
}

// The two gates below are counts, not timings: they repeat from run to run,
// and a change that puts a clock reading or an allocation back on the
// per-task path moves them by a factor, not a percentage. What can disturb
// a single run is the machine — a worker descheduled inside a timed task
// reads as a slow Fn and is timed a few dozen more times — so a gate fails
// only if three runs in a row are over.
func bestOf3(t *testing.T, run func() (got, limit int64)) (got, limit int64) {
	t.Helper()
	for i := 0; i < 3; i++ {
		if got, limit = run(); got <= limit {
			break
		}
	}
	return got, limit
}

func TestClockReadsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("an empty task is not fine-grain under the race detector")
	}
	reads, limit := bestOf3(t, func() (int64, int64) {
		reads, _, _, tasks := fib20(t)
		return reads, tasks/32 + 64
	})
	if reads > limit {
		t.Errorf("%d clock readings on the scheduler goroutine over fib(20), want at most %d (tasks/32 + 64)", reads, limit)
	}
}

func TestAllocsPerTask(t *testing.T) {
	mallocs, limit := bestOf3(t, func() (int64, int64) {
		_, mallocs, _, tasks := fib20(t)
		return mallocs, tasks * 5 / 100
	})
	if mallocs > limit {
		t.Errorf("%d allocations over fib(20), want at most %d (0.05 per task)", mallocs, limit)
	}
}

// Each Fn name is resolved through the map once, however many tasks run it:
// fib(20)'s 21 891 tasks name two Fns, by constants with one backing array
// each, so every resolution after the first of each is a memo hit.
func TestFnResolvedOncePerName(t *testing.T) {
	var first int64 = -1
	for i := 0; i < 3; i++ {
		_, _, misses, _ := fib20(t)
		if misses > 2 {
			t.Errorf("run %d: %d map fallbacks over fib(20), want at most 2 (the distinct names)", i, misses)
		}
		if first >= 0 && misses != first {
			t.Errorf("run %d: %d map fallbacks, run 0 had %d: the count must repeat", i, misses, first)
		}
		first = misses
	}
}

// A name resolves by the identity of its bytes: a constant, a copy with its
// own backing array and a name decoded off the wire all reach the same
// entry, a name that shares its first bytes with a longer one does not take
// the longer one's entry, names sharing a memo set never answer for each
// other, and an unknown name still panics as the program's lookup says.
func TestFnTableResolvesByIdentity(t *testing.T) {
	p := NewProgram("identity")
	for _, name := range []string{"fib", "sum", "add", "fibfib"} {
		p.Register(name, func(model.Ctx) {})
	}
	tab := NewFnTable(p)
	fib := tab.entry("fib")
	if tab.entry("fib") != fib || tab.misses != 1 {
		t.Fatalf("a constant name: %d misses over two resolutions, want 1", tab.misses)
	}
	if tab.entry(strings.Clone("fib")) != fib || tab.misses != 2 {
		t.Errorf("a copy of the name: %d misses, want one more (a new backing array), and fib's entry", tab.misses)
	}

	frame, err := wire.Encode(&wire.Envelope{Job: 1, From: 1, To: 0,
		Payload: wire.StealReply{OK: true, Task: wire.Closure{ID: types.TaskID{Worker: 1, Seq: 1}, Fn: "fib"}}})
	if err != nil {
		t.Fatal(err)
	}
	decoded := func() string {
		env, err := wire.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		return env.Payload.(wire.StealReply).Task.Fn
	}
	if tab.entry(decoded()) != fib {
		t.Error("a name off the wire did not resolve to fib's entry")
	}
	before := tab.misses
	if tab.entry(decoded()) != fib || tab.misses != before {
		t.Errorf("the same name decoded again: %d misses, want %d (interned: the same bytes)", tab.misses, before)
	}

	// "fib" as the first three bytes of "fibfib": the same data pointer.
	// Where the two share a set only the length tells them apart, so plant
	// fibfib's slot in the prefix's set and resolve the prefix there.
	long := strings.Clone("fibfib")
	longEntry := tab.entry(long)
	tab.memo[fnMemoIndex(long[:3])][1] = tab.memo[fnMemoIndex(long)][0]
	if longEntry == fib || tab.entry(long[:3]) != fib {
		t.Error("a name and its prefix, sharing bytes, resolved to one entry")
	}

	// Names in one set: copies whose bytes hash where fib's constant does.
	inFibsSet := func(name string) string {
		for {
			if c := strings.Clone(name); fnMemoIndex(c) == fnMemoIndex("fib") {
				return c
			}
		}
	}
	sum, add := inFibsSet("sum"), inFibsSet("add")
	sumEntry, addEntry := tab.entry(sum), tab.entry(add)
	if sumEntry == fib || addEntry == fib || sumEntry == addEntry {
		t.Fatal("distinct names resolved to one entry")
	}
	tab.entry("fib")
	tab.entry(sum) // the set now holds sum and fib
	before = tab.misses
	for i := 0; i < 1000; i++ {
		if tab.entry("fib") != fib || tab.entry(sum) != sumEntry {
			t.Fatalf("alternation %d: a name answered for the other in its set", i)
		}
	}
	if got := tab.misses - before; got != 0 {
		t.Errorf("two names in one set: %d misses over 1000 alternations, want 0 (a set holds two)", got)
	}
	for i := 0; i < 1000; i++ {
		if tab.entry("fib") != fib || tab.entry(sum) != sumEntry || tab.entry(add) != addEntry {
			t.Fatalf("round %d: a name answered for another in its set", i)
		}
	}
	if got := tab.misses - before; got < 2000 {
		t.Errorf("three names in one set: %d misses over 1000 rounds, want at least 2 a round: they did not share it", got)
	}

	defer func() {
		if r := fmt.Sprint(recover()); !strings.Contains(r, `unknown task function "nope"`) {
			t.Errorf("an unknown name panicked with %q, want the program's message", r)
		}
	}()
	tab.entry("nope")
}

// yieldRig is a worker that never runs, with one closure on its context: a
// place to call Yield from a test. The first Yield publishes (publication
// is due from the start); the rig makes it and then stops the timer, so
// publication is not due again.
func yieldRig(tb testing.TB, clk clock.Clock, blob []byte) (*Worker, *Closure) {
	tb.Helper()
	fab := phishnet.NewFabric()
	tb.Cleanup(fab.Close)
	cfg := DefaultConfig()
	w := NewWorker(1, 0, NewProgram("none"), fab.Attach(0), cfg, clk)
	cl := w.closures.Get()
	cl.ID = w.nextTaskID()
	w.ctx.w, w.ctx.c = w, cl
	if w.ctx.Yield(blob) {
		tb.Fatal("an undisturbed worker told the body to vacate")
	}
	if !cl.published || len(w.ckptSnapshot()) != 1 {
		tb.Fatal("the first blob was not published at once")
	}
	w.ckptTimer.Stop()
	return w, cl
}

// pfoldBlob is the size of a pfold(17) leaf's checkpoint.
const pfoldBlob = 1 + 8*35

// A Yield that neither vacates nor is due for publication is a copy and a
// few loads: no clock reading, no allocation, no lock.
func TestYieldQuietPathIsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	clk := &countingClock{Clock: clock.System}
	blob := bytes.Repeat([]byte{7}, pfoldBlob)
	w, cl := yieldRig(t, clk, blob)
	reads, seq := clk.reads.Load(), cl.CkptSeq

	// Held by the test for the duration: a Yield that wants the publication
	// table's lock never comes back.
	w.ckptMu.Lock()
	const runs = 1000
	vacated := false
	allocs := make(chan float64, 1)
	go func() {
		allocs <- testing.AllocsPerRun(runs, func() {
			blob[1]++
			vacated = vacated || w.ctx.Yield(blob)
		})
	}()
	select {
	case a := <-allocs:
		if a != 0 {
			t.Errorf("%.2f allocations per quiet Yield, want 0", a)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a quiet Yield waits for ckptMu")
	}
	w.ckptMu.Unlock()
	if vacated {
		t.Error("a quiet Yield told the body to vacate")
	}
	if got := clk.reads.Load() - reads; got != 0 {
		t.Errorf("%d clock readings over %d quiet Yields, want 0", got, runs)
	}
	// Eager where it has to be: the closure itself carries the newest blob.
	if got := cl.CkptSeq - seq; got != runs+1 { // AllocsPerRun warms up with one run
		t.Errorf("CkptSeq advanced by %d over %d Yields", got, runs+1)
	}
	if !bytes.Equal(cl.Ckpt, blob) {
		t.Error("the closure does not hold the last blob")
	}
	if got := w.counters.CkptSaves.Load(); got != runs+2 {
		t.Errorf("CkptSaves = %d, want %d", got, runs+2)
	}
	// Lazy where it may be: the table still holds the first blob.
	if pub := w.ckptSnapshot(); len(pub) != 1 || pub[0].Seq != seq {
		t.Errorf("publication table = %+v, want the one blob published at seq %d", pub, seq)
	}
	// And a recycled closure keeps the buffer but not the blob.
	w.closures.Put(cl)
	if cl = w.closures.Get(); cap(cl.Ckpt) < pfoldBlob || len(cl.Ckpt) != 0 || cl.CkptSeq != 0 || cl.published {
		t.Errorf("recycled closure: len %d cap %d seq %d published %v, want an empty buffer of capacity %d",
			len(cl.Ckpt), cap(cl.Ckpt), cl.CkptSeq, cl.published, pfoldBlob)
	}
	w.ctx.c = cl
	if w.ctx.Checkpoint() != nil {
		t.Error("a fresh task on a recycled closure sees a checkpoint")
	}

	// Nor anything else its next creator leaves unwritten: dirty every field
	// Put resets, and let a successor and then a spawn take the closure.
	dirty := func(c *Closure) {
		c.Args = append(c.Args[:0], int64(1), int64(2), int64(3))
		c.Missing, c.NoSteal, c.CkptSeq, c.adopted = 3, true, 9, true
	}
	clean := func(creator string, c, recycled *Closure, missing int32) {
		t.Helper()
		if c != recycled {
			t.Fatalf("%s did not reuse the recycled closure", creator)
		}
		if c.Missing != missing || c.NoSteal || c.CkptSeq != 0 || c.adopted {
			t.Errorf("%s: missing %d, noSteal %v, ckptSeq %d, adopted %v; want %d, false, 0, false",
				creator, c.Missing, c.NoSteal, c.CkptSeq, c.adopted, missing)
		}
		for i, a := range c.Args[:cap(c.Args)] {
			if a != nil && (creator != "Spawn1" || i != 0) {
				t.Errorf("%s: argument slot %d of %d holds %v, want nil", creator, i, cap(c.Args), a)
			}
		}
	}
	w.ctx.c = &Closure{ID: w.nextTaskID()}
	dirty(cl)
	w.closures.Put(cl)
	succ := w.join.Get(w.ctx.SuccessorCont("sum", 2, types.Continuation{}).Task())
	clean("SuccessorCont", succ, cl, 2)
	w.join.Del(succ)
	dirty(succ)
	w.closures.Put(succ)
	w.ctx.Spawn1("fib", types.Continuation{}, int64(5))
	spawned, _ := w.dq.PopHead()
	clean("Spawn1", spawned, cl, 0)
	if len(spawned.Args) != 1 || spawned.Args[0] != int64(5) {
		t.Errorf("Spawn1's arguments = %v, want [5]", spawned.Args)
	}
}

// BenchmarkYield is the quiet path: a pfold-sized blob, an empty inbox,
// publication not due.
func BenchmarkYield(b *testing.B) {
	blob := bytes.Repeat([]byte{7}, pfoldBlob)
	w, _ := yieldRig(b, clock.System, blob)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.ctx.Yield(blob) {
			b.Fatal("vacate")
		}
	}
}

// A blob saved at a Yield reaches the clearinghouse — itself or a later one
// of the same task — within two publication intervals, and what a report
// carries is the blob current when it left, not an older one: the body
// below saves a stamped blob every 100 µs or so and never stops, heartbeats
// are off, so the only reports are the ones Yield sends when publication is
// due.
func TestCkptPublicationLagBounded(t *testing.T) {
	const every = 20 * time.Millisecond
	p := NewProgram("stamper")
	p.Register("stamper", func(c model.Ctx) {
		var blob [16]byte
		for n := uint64(1); ; n++ {
			for t0 := time.Now(); time.Since(t0) < 100*time.Microsecond; {
			}
			binary.BigEndian.PutUint64(blob[:8], n)
			binary.BigEndian.PutUint64(blob[8:], uint64(time.Now().UnixNano()))
			if c.Yield(blob[:]) {
				return
			}
		}
	})
	// Timings on a shared machine: the bound must hold in one of three runs.
	var fault string
	for attempt := 0; attempt < 3; attempt++ {
		if fault = publicationLag(t, p, every); fault == "" {
			return
		}
		t.Log(fault)
	}
	t.Error(fault)
}

func publicationLag(t *testing.T, p *Program, every time.Duration) (fault string) {
	cfg := DefaultConfig()
	cfg.HeartbeatEvery = 0
	cfg.CkptEvery = every
	g := startGrinder(t, p, "stamper", nil, cfg, clock.System)
	defer func() {
		g.w.Crash()
		<-g.done
	}()
	var prev reportAt
	var prevSeq uint64
	for i := 0; i < 12; i++ {
		var r reportAt
		select {
		case r = <-g.reports:
		case <-time.After(5 * time.Second):
			t.Fatalf("no checkpoint report after the first %d", i)
		}
		if len(r.rep.Ckpts) != 1 || len(r.rep.Ckpts[0].Data) != 16 {
			t.Fatalf("report %d carries %+v, want the one task's blob", i, r.rep.Ckpts)
		}
		ck := r.rep.Ckpts[0]
		if n := binary.BigEndian.Uint64(ck.Data[:8]); n != ck.Seq {
			t.Fatalf("report %d: seq %d carries the blob of save %d", i, ck.Seq, n)
		}
		if ck.Seq <= prevSeq {
			t.Fatalf("report %d: seq %d after seq %d", i, ck.Seq, prevSeq)
		}
		saved := time.Unix(0, int64(binary.BigEndian.Uint64(ck.Data[8:])))
		if age := r.at.Sub(saved); age > every {
			fault = "a report carried a blob saved " + age.String() + " earlier: not the latest"
		}
		// Every blob saved since the previous report is superseded by this
		// one, the oldest of them saved just after the previous report left.
		if i > 0 {
			if gap := r.at.Sub(prev.at); gap > 2*every {
				fault = "a blob waited " + gap.String() + " for a report, want at most " + (2 * every).String()
			}
		}
		prev, prevSeq = r, ck.Seq
	}
	return fault
}
