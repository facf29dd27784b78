package jobq

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

func TestPoolRoundRobin(t *testing.T) {
	p := NewPool()
	idA := p.Submit(wire.JobSpec{Name: "a"})
	idB := p.Submit(wire.JobSpec{Name: "b"})
	idC := p.Submit(wire.JobSpec{Name: "c"})
	var got []types.JobID
	for i := 0; i < 6; i++ {
		spec, ok := p.Request()
		if !ok {
			t.Fatal("pool unexpectedly empty")
		}
		got = append(got, spec.ID)
	}
	want := []types.JobID{idA, idB, idC, idA, idB, idC}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin order %v, want %v", got, want)
		}
	}
}

func TestPoolAssignmentKeepsJob(t *testing.T) {
	// The paper: "when it assigns a job to a workstation, the scheduler
	// keeps that job in its pool so that the job can also be assigned to
	// other idle workstations."
	p := NewPool()
	p.Submit(wire.JobSpec{Name: "only"})
	for i := 0; i < 5; i++ {
		if _, ok := p.Request(); !ok {
			t.Fatal("job vanished from the pool after assignment")
		}
	}
	if p.Len() != 1 {
		t.Fatalf("pool len = %d, want 1", p.Len())
	}
}

func TestPoolDone(t *testing.T) {
	p := NewPool()
	a := p.Submit(wire.JobSpec{Name: "a"})
	b := p.Submit(wire.JobSpec{Name: "b"})
	p.Done(a)
	spec, ok := p.Request()
	if !ok || spec.ID != b {
		t.Fatalf("got %v,%v want job b", spec.ID, ok)
	}
	p.Done(b)
	if _, ok := p.Request(); ok {
		t.Fatal("empty pool handed out a job")
	}
	p.Done(b) // double-done is a no-op
}

func TestPoolDoneMidRotation(t *testing.T) {
	p := NewPool()
	a := p.Submit(wire.JobSpec{Name: "a"})
	b := p.Submit(wire.JobSpec{Name: "b"})
	c := p.Submit(wire.JobSpec{Name: "c"})
	p.Request() // a
	p.Request() // b; next=2 → c
	p.Done(a)
	spec, _ := p.Request()
	if spec.ID != c {
		t.Fatalf("after removing a, expected c next, got %d", spec.ID)
	}
	spec, _ = p.Request()
	if spec.ID != b {
		t.Fatalf("rotation broken after Done: got %d want %d", spec.ID, b)
	}
}

func TestServerClient(t *testing.T) {
	pool := NewPool()
	srv, err := NewServer(pool, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := NewClient(srv.Addr())
	defer cli.Close()

	if _, ok, err := cli.Request(1); err != nil || ok {
		t.Fatalf("empty pool: ok=%v err=%v", ok, err)
	}
	id, err := cli.Submit(wire.JobSpec{Name: "ray", Program: "ray", RootFn: "ray"})
	if err != nil {
		t.Fatal(err)
	}
	spec, ok, err := cli.Request(1)
	if err != nil || !ok || spec.ID != id || spec.Name != "ray" {
		t.Fatalf("request: spec=%+v ok=%v err=%v", spec, ok, err)
	}
	if jobs := pool.List(); len(jobs) != 1 {
		t.Fatalf("pool after one submit: %v", jobs)
	}
	if err := cli.Done(id); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cli.Request(1); ok {
		t.Fatal("job still assigned after Done")
	}
}

func TestClientReconnects(t *testing.T) {
	pool := NewPool()
	srv, err := NewServer(pool, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli := NewClient(addr)
	defer cli.Close()
	if _, err := cli.Submit(wire.JobSpec{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	// Kill the server; the next call must fail, not hang.
	srv.Close()
	if _, _, err := cli.Request(1); err == nil {
		t.Fatal("request to dead server succeeded")
	}
	// Bring a new server up on the same pool at a new address; a fresh
	// client works (managers would be re-pointed by configuration).
	srv2, err := NewServer(pool, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cli2 := NewClient(srv2.Addr())
	defer cli2.Close()
	if _, ok, err := cli2.Request(1); err != nil || !ok {
		t.Fatalf("request after restart: ok=%v err=%v", ok, err)
	}
}

// await runs Pool.Await on its own goroutine; the result arrives on the
// returned channel.
func await(p *Pool, skip types.JobID, hold <-chan time.Time, cancel <-chan struct{}) <-chan wire.JobSpec {
	out := make(chan wire.JobSpec, 1)
	go func() {
		spec, ok := p.Await(skip, hold, cancel)
		if !ok {
			spec.ID = -1
		}
		out <- spec
	}()
	return out
}

func within(t *testing.T, what string, got <-chan wire.JobSpec, d time.Duration) wire.JobSpec {
	t.Helper()
	select {
	case spec := <-got:
		return spec
	case <-time.After(d):
		t.Fatalf("%s: no answer within %v", what, d)
		return wire.JobSpec{}
	}
}

// A held request is answered by the next Submit, and a Done of the job it
// skips wakes it without answering it.
func TestAwaitWakesOnChange(t *testing.T) {
	p := NewPool()
	a := p.Submit(wire.JobSpec{Name: "a"})
	got := await(p, a, nil, nil)
	p.mu.Lock()
	changed := p.changed
	p.mu.Unlock()
	p.Done(a)
	select {
	case <-changed:
	default:
		t.Fatal("Done did not wake held requests")
	}
	select {
	case spec := <-got:
		t.Fatalf("answered with %d after the skipped job's Done", spec.ID)
	case <-time.After(5 * time.Millisecond):
	}
	b := p.Submit(wire.JobSpec{Name: "b"})
	if spec := within(t, "submit", got, time.Second); spec.ID != b {
		t.Fatalf("held request got %d, want %d", spec.ID, b)
	}
}

// One Submit answers every held request: all idle workstations join the
// job, as they would at their polls.
func TestSubmitAnswersEveryHeldRequest(t *testing.T) {
	p := NewPool()
	var held []<-chan wire.JobSpec
	for i := 0; i < 3; i++ {
		held = append(held, await(p, 0, nil, nil))
	}
	id := p.Submit(wire.JobSpec{Name: "a"})
	for _, got := range held {
		if spec := within(t, "submit", got, time.Second); spec.ID != id {
			t.Fatalf("held request got %d, want %d", spec.ID, id)
		}
	}
}

// A hold that runs out, or a cancel, answers empty; a pool whose only job
// is the skipped one is empty to that request.
func TestAwaitHoldAndCancel(t *testing.T) {
	p := NewPool()
	a := p.Submit(wire.JobSpec{Name: "a"})
	hold := make(chan time.Time, 1)
	got := await(p, a, hold, nil)
	hold <- time.Now()
	if spec := within(t, "hold", got, time.Second); spec.ID != -1 {
		t.Fatalf("expired hold got job %d", spec.ID)
	}
	cancel := make(chan struct{})
	got = await(NewPool(), 0, nil, cancel)
	close(cancel)
	if spec := within(t, "cancel", got, time.Second); spec.ID != -1 {
		t.Fatalf("cancelled request got job %d", spec.ID)
	}
	if spec := within(t, "no skip", await(p, 0, nil, nil), time.Second); spec.ID != a {
		t.Fatalf("got %d, want %d", spec.ID, a)
	}
}

// Round-robin never hands out the skipped job and keeps rotating over the
// others; a request that skips nothing gets the skipped job its turn again.
func TestRoundRobinSkips(t *testing.T) {
	p := NewPool()
	a := p.Submit(wire.JobSpec{Name: "a"})
	b := p.Submit(wire.JobSpec{Name: "b"})
	c := p.Submit(wire.JobSpec{Name: "c"})
	var got []types.JobID
	for i := 0; i < 4; i++ {
		spec, _ := p.take(b)
		got = append(got, spec.ID)
	}
	if want := []types.JobID{a, c, a, c}; !reflect.DeepEqual(got, want) {
		t.Fatalf("round robin skipping b: %v, want %v", got, want)
	}
	got = got[:0]
	for i := 0; i < 3; i++ {
		spec, _ := p.take(0)
		got = append(got, spec.ID)
	}
	if want := []types.JobID{a, b, c}; !reflect.DeepEqual(got, want) {
		t.Fatalf("round robin without a skip: %v, want %v", got, want)
	}
}

func startServer(t *testing.T) (*Server, *Pool) {
	t.Helper()
	pool := NewPool()
	srv, err := NewServer(pool, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, pool
}

// clientAwait runs Client.Await on its own goroutine once the server has
// the request.
func clientAwait(t *testing.T, srv *Server, cli *Client, skip types.JobID, hold time.Duration, cancel <-chan struct{}) <-chan error {
	t.Helper()
	before := srv.Stats().Requests.Load()
	out := make(chan error, 1)
	go func() {
		spec, ok, err := cli.Await(1, skip, hold, cancel)
		if err == nil && ok && spec.ID == skip {
			err = errors.New("granted the skipped job")
		} else if err == nil && !ok {
			err = errEmpty
		}
		out <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().Requests.Load() == before; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server never got the request")
		}
	}
	return out
}

var errEmpty = errors.New("empty reply")

func waitErr(t *testing.T, what string, got <-chan error, d time.Duration) error {
	t.Helper()
	select {
	case err := <-got:
		return err
	case <-time.After(d):
		t.Fatalf("%s: no answer within %v", what, d)
		return nil
	}
}

// Over TCP, a held request is answered by another client's Submit.
func TestHeldRequestOverTCP(t *testing.T) {
	srv, _ := startServer(t)
	cli := NewClient(srv.Addr())
	defer cli.Close()
	sub := NewClient(srv.Addr())
	defer sub.Close()
	old, err := sub.Submit(wire.JobSpec{Name: "finished"})
	if err != nil {
		t.Fatal(err)
	}
	got := clientAwait(t, srv, cli, old, 10*time.Second, nil)
	t0 := time.Now()
	if _, err := sub.Submit(wire.JobSpec{Name: "next"}); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, "submit", got, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > 50*time.Millisecond {
		t.Errorf("held request answered %v after Submit, want < 50ms", d)
	}
}

// Server.Close and a cancelled client each end a held request at once.
func TestHeldRequestEnds(t *testing.T) {
	srv, _ := startServer(t)
	cli := NewClientWith(srv.Addr(), ClientConfig{Retries: 1})
	defer cli.Close()
	cancel := make(chan struct{})
	got := clientAwait(t, srv, cli, 0, time.Minute, cancel)
	t0 := time.Now()
	close(cancel)
	if err := waitErr(t, "cancel", got, time.Second); err == nil || errors.Is(err, errEmpty) {
		t.Errorf("cancelled request returned %v, want an error", err)
	}
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Errorf("cancelled request returned after %v", d)
	}

	got = clientAwait(t, srv, cli, 0, time.Minute, nil)
	t0 = time.Now()
	srv.Close()
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Errorf("Server.Close took %v with a request held", d)
	}
	waitErr(t, "close", got, time.Second)
}

// A hold longer than the client's Timeout is not a timeout, and is asked
// once.
func TestHoldOutlastsTimeout(t *testing.T) {
	srv, _ := startServer(t)
	cli := NewClientWith(srv.Addr(), ClientConfig{Timeout: 20 * time.Millisecond})
	defer cli.Close()
	t0 := time.Now()
	got := clientAwait(t, srv, cli, 0, 100*time.Millisecond, nil)
	if err := waitErr(t, "hold", got, 5*time.Second); !errors.Is(err, errEmpty) {
		t.Fatalf("held request: %v, want an empty reply", err)
	}
	if d := time.Since(t0); d < 100*time.Millisecond {
		t.Errorf("empty reply after %v, before the hold ran out", d)
	}
	if n := srv.Stats().Requests.Load(); n != 1 {
		t.Errorf("%d requests, want 1 (no retry)", n)
	}
}
