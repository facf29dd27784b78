package clearinghouse

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"phish/internal/clock"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// newJournaledCH builds a clearinghouse journaling to path on a fresh
// fabric, mirroring newHarness but keeping the journal handle.
func newJournaledCH(t *testing.T, path string) (*phishnet.Fabric, *Clearinghouse, *Journal) {
	t.Helper()
	jnl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Journal = jnl
	fab := phishnet.NewFabric()
	spec := wire.JobSpec{ID: 1, Name: "test", RootFn: "root", RootArgs: []types.Value{int64(1)}}
	ch := New(spec, fab.Attach(types.ClearinghouseID), cfg)
	go ch.Run()
	return fab, ch, jnl
}

func TestJournalRecoversMembershipAndRoot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job-1.jnl")
	fab, ch, jnl := newJournaledCH(t, path)

	w1 := fab.Attach(10)
	send := func(port *phishnet.Port, from types.WorkerID, payload any) {
		t.Helper()
		if err := port.Send(&wire.Envelope{Job: 1, From: from, To: types.ClearinghouseID, Payload: payload}); err != nil {
			t.Fatalf("send %T: %v", payload, err)
		}
	}
	send(w1, 10, wire.Register{Worker: 10})
	expect[wire.SpawnRoot](t, w1, time.Second)
	w2 := fab.Attach(11)
	send(w2, 11, wire.Register{Worker: 11})
	rep := expect[wire.RegisterReply](t, w2, time.Second)
	oldEpoch := rep.View.Epoch
	send(w1, 10, wire.IO{Worker: 10, Text: "partial output"})
	// The IO record is appended under the handler; wait for it to land.
	deadline := time.Now().Add(2 * time.Second)
	for ch.Output() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Crash: no shutdowns, just stop and drop the journal handle.
	ch.Stop()
	_ = jnl.Close()
	fab.Close()

	rec, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Spec.ID != 1 || rec.Spec.RootFn != "root" {
		t.Errorf("recovered spec = %+v", rec.Spec)
	}
	if rec.RootHost != 10 {
		t.Errorf("recovered root host = %d, want 10", rec.RootHost)
	}
	if rec.Done {
		t.Error("job marked done without a result")
	}
	if len(rec.Members) != 2 {
		t.Fatalf("recovered %d members, want 2: %+v", len(rec.Members), rec.Members)
	}
	if !strings.Contains(rec.Output, "partial output\n") {
		t.Errorf("recovered output = %q", rec.Output)
	}

	// A recovered incarnation resumes: same members, bumped epoch, and the
	// buffered output intact.
	jnl2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Journal = jnl2
	fab2 := phishnet.NewFabric()
	ch2 := NewFromRecovery(rec, fab2.Attach(types.ClearinghouseID), cfg)
	go ch2.Run()
	defer func() { ch2.Stop(); jnl2.Close(); fab2.Close() }()

	live := ch2.LiveWorkers()
	if len(live) != 2 || live[0] != 10 || live[1] != 11 {
		t.Errorf("recovered live workers = %v, want [10 11]", live)
	}
	if !strings.Contains(ch2.Output(), "partial output\n") {
		t.Errorf("recovered incarnation lost the output: %q", ch2.Output())
	}
	// A surviving worker re-registers; the view it gets must be fresher
	// than anything the dead incarnation sent.
	w1b := fab2.Attach(10)
	if err := w1b.Send(&wire.Envelope{Job: 1, From: 10, To: types.ClearinghouseID, Payload: wire.Register{Worker: 10}}); err != nil {
		t.Fatal(err)
	}
	rep2 := expect[wire.RegisterReply](t, w1b, time.Second)
	if rep2.View.Epoch <= oldEpoch {
		t.Errorf("recovered epoch %d not past journaled %d; stale views would win", rep2.View.Epoch, oldEpoch)
	}
	// The root is already hosted: re-registering must not respawn it.
	select {
	case env := <-w1b.Recv():
		if _, bad := env.Payload.(wire.SpawnRoot); bad {
			t.Fatal("recovered clearinghouse respawned a root that is still alive")
		}
	case <-time.After(50 * time.Millisecond):
	}

	// Deliver the root result; it must complete the job and survive yet
	// another crash/recovery cycle.
	if err := w1b.Send(&wire.Envelope{Job: 1, From: 10, To: types.ClearinghouseID, Payload: wire.Arg{
		Cont: types.Continuation{Task: types.TaskID{Worker: types.ClearinghouseID, Seq: 1}},
		Val:  int64(55),
	}}); err != nil {
		t.Fatal(err)
	}
	if v, err := ch2.WaitResult(2 * time.Second); err != nil || v.(int64) != 55 {
		t.Fatalf("recovered clearinghouse result = %v, %v", v, err)
	}
	ch2.Stop()
	_ = jnl2.Close()

	rec2, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rec2.Done || rec2.Result.(int64) != 55 {
		t.Errorf("result did not survive in the journal: done=%v result=%v", rec2.Done, rec2.Result)
	}
	fab3 := phishnet.NewFabric()
	defer fab3.Close()
	ch3 := NewFromRecovery(rec2, fab3.Attach(types.ClearinghouseID), DefaultConfig())
	go ch3.Run()
	defer ch3.Stop()
	if v, err := ch3.WaitResult(time.Second); err != nil || v.(int64) != 55 {
		t.Fatalf("second recovery lost the result: %v, %v", v, err)
	}
}

func TestJournalRecoveryTimesOutDeadWorkers(t *testing.T) {
	// A worker that died during the clearinghouse outage never re-registers
	// or heartbeats; the recovered incarnation must declare it crashed via
	// the heartbeat timeout (recovered members count as heartbeat-known).
	path := filepath.Join(t.TempDir(), "job-1.jnl")
	fab, ch, jnl := newJournaledCH(t, path)
	w1 := fab.Attach(10)
	if err := w1.Send(&wire.Envelope{Job: 1, From: 10, To: types.ClearinghouseID, Payload: wire.Register{Worker: 10}}); err != nil {
		t.Fatal(err)
	}
	expect[wire.SpawnRoot](t, w1, time.Second)
	ch.Stop()
	_ = jnl.Close()
	fab.Close()

	rec, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{UpdateEvery: 10 * time.Millisecond, HeartbeatTimeout: 50 * time.Millisecond}
	fab2 := phishnet.NewFabric()
	defer fab2.Close()
	ch2 := NewFromRecovery(rec, fab2.Attach(types.ClearinghouseID), cfg)
	go ch2.Run()
	defer ch2.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for len(ch2.LiveWorkers()) > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if live := ch2.LiveWorkers(); len(live) != 0 {
		t.Errorf("worker dead through the outage still live after recovery: %v", live)
	}
}

func TestJournalRecoveryAdaptiveDetector(t *testing.T) {
	// Recovery under the phi detector spans both regimes. A member that
	// died during the clearinghouse outage never heartbeats the new
	// incarnation, so its post-recovery history stays cold and the classic
	// fixed timeout evicts it. The survivor re-registers and warms a
	// steady cadence; when it later goes silent, phi declares it in a
	// fraction of the fixed timeout.
	path := filepath.Join(t.TempDir(), "job-1.jnl")
	fab, ch, jnl := newJournaledCH(t, path)
	w1 := fab.Attach(10)
	send := func(port *phishnet.Port, from types.WorkerID, payload any) {
		t.Helper()
		if err := port.Send(&wire.Envelope{Job: 1, From: from, To: types.ClearinghouseID, Payload: payload}); err != nil {
			t.Fatalf("send %T: %v", payload, err)
		}
	}
	send(w1, 10, wire.Register{Worker: 10})
	expect[wire.SpawnRoot](t, w1, time.Second)
	w2 := fab.Attach(11)
	send(w2, 11, wire.Register{Worker: 11})
	expect[wire.RegisterReply](t, w2, time.Second)
	ch.Stop()
	_ = jnl.Close()
	fab.Close()

	rec, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake()
	cfg := Config{UpdateEvery: time.Hour, HeartbeatTimeout: 10 * time.Second,
		PhiThreshold: 8, PhiSlack: -1, Clock: clk}
	fab2 := phishnet.NewFabric()
	defer fab2.Close()
	ch2 := NewFromRecovery(rec, fab2.Attach(types.ClearinghouseID), cfg)
	go ch2.Run()
	defer ch2.Stop()

	w1b := fab2.Attach(10)
	send(w1b, 10, wire.Register{Worker: 10})
	expect[wire.RegisterReply](t, w1b, time.Second)

	// 16 fake seconds at a 1 s heartbeat cadence: sweeps run every 5 s,
	// and by t=15s worker 11's silence exceeds the fixed timeout.
	for i := 0; i < 16; i++ {
		if !clk.BlockUntilWaiters(1, time.Second) {
			t.Fatal("clearinghouse never armed its heartbeat check")
		}
		clk.Advance(time.Second)
		send(w1b, 10, beat(10))
		time.Sleep(2 * time.Millisecond)
	}
	if live := ch2.LiveWorkers(); len(live) != 1 || live[0] != 10 {
		t.Fatalf("live = %v, want [10] (cold-history 11 past the fixed timeout)", live)
	}

	// The survivor goes silent. Its warm history (mean 1 s, floored
	// stddev 250 ms) pushes phi past 8 within ~2.5 s of silence, so the
	// next sweep catches it — 6 s in, well under the 10 s fixed timeout.
	for i := 0; i < 6; i++ {
		if !clk.BlockUntilWaiters(1, time.Second) {
			t.Fatal("clearinghouse never armed its heartbeat check")
		}
		clk.Advance(time.Second)
		time.Sleep(2 * time.Millisecond)
	}
	if live := ch2.LiveWorkers(); len(live) != 0 {
		t.Errorf("warm-history worker silent 6s (phi >> 8) still live: %v", live)
	}
}

func TestReplayJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job-1.jnl")
	fab, ch, jnl := newJournaledCH(t, path)
	w1 := fab.Attach(10)
	if err := w1.Send(&wire.Envelope{Job: 1, From: 10, To: types.ClearinghouseID, Payload: wire.Register{Worker: 10}}); err != nil {
		t.Fatal(err)
	}
	expect[wire.SpawnRoot](t, w1, time.Second)
	ch.Stop()
	_ = jnl.Close()
	fab.Close()

	// Simulate a crash mid-append: a record prefix with most of its body
	// missing dangles off the end of the log.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	rec, err := ReplayJournal(path)
	if err != nil {
		t.Fatalf("torn tail broke replay: %v", err)
	}
	if rec.Spec.ID != 1 {
		t.Errorf("recovered spec = %+v", rec.Spec)
	}
}

// heldConn is a batching transport without a backstop: what the
// clearinghouse sends is held until it calls Flush.
type heldConn struct {
	*phishnet.Port
	mu   sync.Mutex
	held []*wire.Envelope
}

func (h *heldConn) Send(env *wire.Envelope) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.held = append(h.held, env)
	return nil
}

func (h *heldConn) Flush() {
	h.mu.Lock()
	held := h.held
	h.held = nil
	h.mu.Unlock()
	for _, env := range held {
		_ = h.Port.Send(env)
	}
}

// A state record that names a root host is written only after the
// SpawnRoot it vouches for has left the process: a clearinghouse killed
// right after the record would otherwise resume believing a worker holds a
// root that never reached it, and wait for a result nobody computes.
func TestJournalNamesRootHostAfterSpawnRootLeft(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job-1.jnl")
	jnl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	cfg := DefaultConfig()
	cfg.Journal = jnl
	fab := phishnet.NewFabric()
	defer fab.Close()
	spec := wire.JobSpec{ID: 1, Name: "test", RootFn: "root", RootArgs: []types.Value{int64(1)}}
	ch := New(spec, &heldConn{Port: fab.Attach(types.ClearinghouseID)}, cfg)
	go ch.Run()
	defer ch.Stop()

	w := fab.Attach(10)
	if err := w.Send(&wire.Envelope{Job: 1, From: 10, To: types.ClearinghouseID, Payload: wire.Register{Worker: 10}}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if rec, err := ReplayJournal(path); err == nil && rec.RootHost == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the journal never named the root host")
		}
	}
	// Killed now, the clearinghouse has already sent what the record says.
	for {
		select {
		case env := <-w.Recv():
			if _, ok := env.Payload.(wire.SpawnRoot); ok {
				return
			}
		default:
			t.Fatal("the journal names worker 10 the root host, but its SpawnRoot has not left")
		}
	}
}
