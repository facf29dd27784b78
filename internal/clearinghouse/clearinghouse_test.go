package clearinghouse

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"phish/internal/clock"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// chHarness wires a clearinghouse to a fabric with a manually driven
// "worker" port for protocol-level tests.
type chHarness struct {
	t   *testing.T
	fab *phishnet.Fabric
	ch  *Clearinghouse
}

func newHarness(t *testing.T, cfg Config) *chHarness {
	t.Helper()
	fab := phishnet.NewFabric()
	spec := wire.JobSpec{ID: 1, Name: "test", RootFn: "root", RootArgs: []types.Value{int64(1)}}
	ch := New(spec, fab.Attach(types.ClearinghouseID), cfg)
	go ch.Run()
	t.Cleanup(func() { ch.Stop(); fab.Close() })
	return &chHarness{t: t, fab: fab, ch: ch}
}

// attach registers a fake worker and returns its port.
func (h *chHarness) attach(id types.WorkerID) *phishnet.Port {
	h.t.Helper()
	port := h.fab.Attach(id)
	h.send(port, id, wire.Register{Worker: id})
	return port
}

func (h *chHarness) send(port *phishnet.Port, from types.WorkerID, payload any) {
	h.t.Helper()
	env := &wire.Envelope{Job: 1, From: from, To: types.ClearinghouseID, Payload: payload}
	if err := port.Send(env); err != nil {
		h.t.Fatalf("send %T: %v", payload, err)
	}
}

// expect reads messages from port until one of type matching check arrives
// (check returns true) or the timeout passes.
func expect[T any](t *testing.T, port *phishnet.Port, timeout time.Duration) T {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case env, ok := <-port.Recv():
			if !ok {
				t.Fatal("port closed")
			}
			if p, ok := env.Payload.(T); ok {
				return p
			}
		case <-deadline:
			var zero T
			t.Fatalf("timed out waiting for %T", zero)
			return zero
		}
	}
}

func TestRegisterGetsViewAndRoot(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	w := h.attach(10)
	rep := expect[wire.RegisterReply](t, w, time.Second)
	if len(rep.View.Members) != 1 || rep.View.Members[0].Worker != 10 {
		t.Errorf("bad view: %+v", rep.View)
	}
	root := expect[wire.SpawnRoot](t, w, time.Second)
	if root.Fn != "root" {
		t.Errorf("root fn = %q", root.Fn)
	}
}

func TestSecondRegistrantGetsNoRoot(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	w1 := h.attach(10)
	expect[wire.SpawnRoot](t, w1, time.Second)
	w2 := h.attach(11)
	expect[wire.RegisterReply](t, w2, time.Second)
	// w2 must not receive SpawnRoot; give it a moment and check nothing
	// of that type shows up.
	select {
	case env := <-w2.Recv():
		if _, bad := env.Payload.(wire.SpawnRoot); bad {
			t.Fatal("second registrant was told to spawn the root")
		}
	case <-time.After(50 * time.Millisecond):
	}
}

func TestMembershipPushedOnJoin(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	w1 := h.attach(10)
	expect[wire.RegisterReply](t, w1, time.Second)
	_ = h.attach(11)
	// w1 may first see the update from its own join; the join of w2 must
	// push a 2-member view promptly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		up := expect[wire.Update](t, w1, time.Second)
		if len(up.View.Members) == 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw a 2-member update (last had %d)", len(up.View.Members))
		}
	}
}

func TestRootResultCompletesJob(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	w := h.attach(10)
	expect[wire.SpawnRoot](t, w, time.Second)
	h.send(w, 10, wire.Arg{
		Cont: types.Continuation{Task: types.TaskID{Worker: types.ClearinghouseID, Seq: 1}},
		Val:  int64(55),
	})
	v, err := h.ch.WaitResult(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.(int64) != 55 {
		t.Errorf("result = %v", v)
	}
	expect[wire.Shutdown](t, w, time.Second)
	// Duplicate result (redo race) is dropped.
	h.send(w, 10, wire.Arg{
		Cont: types.Continuation{Task: types.TaskID{Worker: types.ClearinghouseID, Seq: 1}},
		Val:  int64(99),
	})
	v, _ = h.ch.WaitResult(time.Second)
	if v.(int64) != 55 {
		t.Errorf("duplicate result overwrote the first: %v", v)
	}
}

func TestMigrationTombstoneRouting(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	w1 := h.attach(10)
	expect[wire.RegisterReply](t, w1, time.Second)
	w2 := h.attach(11)
	expect[wire.RegisterReply](t, w2, time.Second)
	h.send(w1, 10, wire.Unregister{Worker: 10, Reason: wire.LeaveReclaimed, MigratedTo: 11})
	// w2's next update must carry the tombstone 10->11.
	deadline := time.Now().Add(2 * time.Second)
	for {
		up := expect[wire.Update](t, w2, time.Second)
		var found bool
		for _, m := range up.View.Members {
			if m.Worker == 10 && m.HostedBy == 11 {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tombstone never appeared in updates")
		}
	}
	live := h.ch.LiveWorkers()
	if len(live) != 1 || live[0] != 11 {
		t.Errorf("live workers = %v, want [11]", live)
	}
}

func TestCrashBroadcastsWorkerDownAndRespawnsRoot(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	w1 := h.attach(10)
	expect[wire.SpawnRoot](t, w1, time.Second)
	w2 := h.attach(11)
	expect[wire.RegisterReply](t, w2, time.Second)
	// Worker 10 (the root host) dies with state.
	h.send(w2, 10, wire.Unregister{Worker: 10, Reason: wire.LeaveCrash})
	expect[wire.WorkerDown](t, w2, time.Second)
	root := expect[wire.SpawnRoot](t, w2, time.Second)
	if root.Fn != "root" {
		t.Errorf("respawned root fn = %q", root.Fn)
	}
}

func TestRootRespawnArmedWhenNobodyLeft(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	w1 := h.attach(10)
	expect[wire.SpawnRoot](t, w1, time.Second)
	h.send(w1, 10, wire.Unregister{Worker: 10, Reason: wire.LeaveCrash})
	// Next registrant restarts the job.
	w2 := h.attach(11)
	expect[wire.RegisterReply](t, w2, time.Second)
	expect[wire.SpawnRoot](t, w2, time.Second)
}

func TestHeartbeatTimeoutDeclaresCrash(t *testing.T) {
	clk := clock.NewFake()
	cfg := Config{UpdateEvery: time.Hour, HeartbeatTimeout: 10 * time.Second, Clock: clk}
	h := newHarness(t, cfg)
	w1 := h.attach(10)
	expect[wire.RegisterReply](t, w1, time.Second)
	w2 := h.attach(11)
	expect[wire.RegisterReply](t, w2, time.Second)

	// w1 heartbeats once — only workers that have ever heartbeated are
	// subject to the timeout — then goes silent; w2 keeps heartbeating.
	h.send(w1, 10, wire.Heartbeat{Worker: 10})
	time.Sleep(2 * time.Millisecond)
	for i := 0; i < 6; i++ {
		if !clk.BlockUntilWaiters(1, time.Second) {
			t.Fatal("clearinghouse never armed its heartbeat check")
		}
		clk.Advance(5 * time.Second)
		h.send(w2, 11, wire.Heartbeat{Worker: 11})
		time.Sleep(2 * time.Millisecond)
	}
	expect[wire.WorkerDown](t, w2, 2*time.Second)
	live := h.ch.LiveWorkers()
	if len(live) != 1 || live[0] != 11 {
		t.Errorf("live = %v, want [11]", live)
	}
}

func TestRegistrationGraceEvictsNeverHeartbeated(t *testing.T) {
	clk := clock.NewFake()
	// The registration grace is 4× HeartbeatTimeout: 40 s.
	cfg := Config{UpdateEvery: time.Hour, HeartbeatTimeout: 10 * time.Second,
		PhiThreshold: 8, Clock: clk}
	h := newHarness(t, cfg)
	w1 := h.attach(10) // heartbeats throughout and watches the broadcast
	expect[wire.RegisterReply](t, w1, time.Second)
	w2 := h.attach(11) // registers, then never heartbeats
	expect[wire.RegisterReply](t, w2, time.Second)

	step := func() {
		h.t.Helper()
		if !clk.BlockUntilWaiters(1, time.Second) {
			t.Fatal("clearinghouse never armed its heartbeat check")
		}
		clk.Advance(5 * time.Second)
		h.send(w1, 10, wire.Heartbeat{Worker: 10})
		time.Sleep(2 * time.Millisecond)
	}
	// Three full heartbeat timeouts pass. A worker that has never
	// heartbeated is exempt from the fixed timeout (its runtime may have
	// heartbeats off entirely)...
	for i := 0; i < 6; i++ {
		step()
	}
	if live := h.ch.LiveWorkers(); len(live) != 2 {
		t.Fatalf("never-heartbeated worker evicted inside its grace: %v", live)
	}
	// ...but no longer forever: the registration grace bounds the
	// exemption, reclaiming the leaked closures of a worker that died
	// between registering and its first heartbeat.
	for i := 0; i < 4; i++ {
		step()
	}
	expect[wire.WorkerDown](t, w1, 2*time.Second)
	if live := h.ch.LiveWorkers(); len(live) != 1 || live[0] != 10 {
		t.Errorf("live = %v, want [10] (grace expired for 11)", live)
	}
}

func TestStayRequestArbitration(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	w1 := h.attach(10) // root host
	expect[wire.SpawnRoot](t, w1, time.Second)
	w2 := h.attach(11)
	expect[wire.RegisterReply](t, w2, time.Second)

	// The root host must be told to stay.
	h.send(w1, 10, wire.StayRequest{Worker: 10})
	if rep := expect[wire.StayReply](t, w1, time.Second); !rep.Stay {
		t.Error("root host allowed to retire")
	}
	// A secondary worker may retire while others remain.
	h.send(w2, 11, wire.StayRequest{Worker: 11})
	if rep := expect[wire.StayReply](t, w2, time.Second); rep.Stay {
		t.Error("secondary worker forced to stay")
	}
	// After w2 leaves, w1... is last AND root host: still refused.
	h.send(w2, 11, wire.Unregister{Worker: 11, Reason: wire.LeaveNoWork})
	h.send(w1, 10, wire.StayRequest{Worker: 10})
	if rep := expect[wire.StayReply](t, w1, time.Second); !rep.Stay {
		t.Error("last worker of an unfinished job allowed to retire")
	}
}

func TestIOBuffering(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	w := h.attach(10)
	expect[wire.RegisterReply](t, w, time.Second)
	h.send(w, 10, wire.IO{Worker: 10, Text: "hello"})
	h.send(w, 10, wire.IO{Worker: 10, Text: "world\n"})
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(h.ch.Output(), "world\n") && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	out := h.ch.Output()
	if !strings.Contains(out, "hello\n") || !strings.Contains(out, "world\n") {
		t.Errorf("output = %q", out)
	}
}

// TestReadersShareTheJobLock drives a running clearinghouse through
// registration, heartbeats, span-carrying StatReports, a clean leave, a
// reported crash and a crash the heartbeat sweep declares, with the sweep
// fired by a fake clock, while other goroutines read it through every
// accessor that runs off the Run goroutine. Under -race it fails if any of
// the worker-keyed tables is touched outside the job lock.
func TestReadersShareTheJobLock(t *testing.T) {
	clk := clock.NewFake()
	cfg := DefaultConfig()
	cfg.UpdateEvery = 5 * time.Second
	cfg.HeartbeatTimeout = 10 * time.Second
	cfg.Clock = clk
	h := newHarness(t, cfg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, read := range []func(){
		func() { h.ch.ClusterSnapshot() },
		func() { h.ch.LiveWorkers() },
		func() { h.ch.Spans() },
		func() { h.ch.SpanStats() },
		func() { _ = h.ch.DebugMembers() },
	} {
		wg.Add(1)
		go func(read func()) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}(read)
	}

	// Worker 1 stays for the whole test, heartbeating every sweep period,
	// and hears every crash.
	watcher := h.attach(1)
	expect[wire.RegisterReply](t, watcher, time.Second)
	sweep := func() {
		t.Helper()
		h.send(watcher, 1, wire.Heartbeat{Worker: 1, SendNS: time.Now().UnixNano()})
		if !clk.BlockUntilWaiters(2, time.Second) {
			t.Fatal("clearinghouse never armed its update and heartbeat timers")
		}
		clk.Advance(5 * time.Second) // fires the update push and the sweep
	}
	const rounds, perRound = 10, 3
	swept := 0
	for r := 0; r < rounds; r++ {
		base := types.WorkerID(10 + perRound*r)
		ids := []types.WorkerID{base, base + 1, base + 2}
		var ports []*phishnet.Port
		for _, id := range ids {
			port := h.attach(id)
			ports = append(ports, port)
			expect[wire.RegisterReply](t, port, time.Second)
			h.send(port, id, wire.Heartbeat{Worker: id, SendNS: time.Now().UnixNano()})
			rep := spanReport(id, 1, 3)
			rep.Counters, rep.Deque = []int64{int64(r + 1)}, 1
			h.send(port, id, rep)
		}
		h.send(watcher, 1, wire.StatReport{Worker: 1, Counters: []int64{int64(r + 1)}})
		sweep()
		// The first leaves cleanly, the second reports its own crash, and
		// the third falls silent until a later sweep declares it dead.
		h.send(ports[0], ids[0], wire.Unregister{Worker: ids[0], Reason: wire.LeaveNoWork})
		h.send(ports[1], ids[1], wire.Unregister{Worker: ids[1], Reason: wire.LeaveCrash})
		for {
			down := expect[wire.WorkerDown](t, watcher, 2*time.Second)
			if down.Worker == ids[1] {
				break
			}
			swept++
		}
	}
	for deadline := time.Now().Add(5 * time.Second); len(h.ch.LiveWorkers()) > 1; {
		if time.Now().After(deadline) {
			t.Fatalf("live = %v, want [1] once the silent workers are swept", h.ch.LiveWorkers())
		}
		sweep()
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if swept == 0 {
		t.Error("no crash was declared by the sweep while the readers ran")
	}
	if live := h.ch.LiveWorkers(); len(live) != 1 || live[0] != 1 {
		t.Errorf("live = %v, want [1]", live)
	}
	spans := h.ch.Spans()
	if collected, _ := h.ch.SpanStats(); collected != perRound*3*rounds || len(spans) != int(collected) {
		t.Errorf("collected %d spans, Spans() returned %d, want %d", collected, len(spans), perRound*3*rounds)
	}
	if !sort.SliceIsSorted(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start }) {
		t.Error("Spans() not sorted by start time")
	}
}
