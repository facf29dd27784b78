package jobq

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"phish/internal/wire"
)

func TestDurablePoolSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobq.wal")
	p, err := NewDurablePool(path)
	if err != nil {
		t.Fatal(err)
	}
	id1 := p.Submit(wire.JobSpec{Name: "one"})
	id2 := p.Submit(wire.JobSpec{Name: "two"})
	id3 := p.Submit(wire.JobSpec{Name: "three"})
	p.Done(id2)
	if err := p.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Restart: the reopened pool must hold exactly the unfinished jobs,
	// with their original ids, and keep minting fresh ids past them.
	p2, err := NewDurablePool(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.CloseStore()
	jobs := p2.List()
	if len(jobs) != 2 || jobs[0].ID != id1 || jobs[0].Name != "one" || jobs[1].ID != id3 {
		t.Fatalf("recovered pool = %+v", jobs)
	}
	if id4 := p2.Submit(wire.JobSpec{Name: "four"}); id4 <= id3 {
		t.Errorf("id continuity broken: new id %d after %d", id4, id3)
	}
	if err := p2.StoreErr(); err != nil {
		t.Errorf("sticky store error: %v", err)
	}
}

// A pool whose log can no longer be written refuses submits instead of
// acknowledging jobs a restart would lose: over TCP the client gets an
// error, the pool stays as it was, and StoreErr says why.
func TestSubmitRefusedOnceStoreFails(t *testing.T) {
	dir := t.TempDir()
	pool, err := NewDurablePool(filepath.Join(dir, "jobq.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.CloseStore()
	srv, err := NewServer(pool, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(srv.Addr())
	defer cli.Close()
	if _, err := cli.Submit(wire.JobSpec{Name: "kept"}); err != nil {
		t.Fatal(err)
	}

	closed, err := os.Create(filepath.Join(dir, "closed"))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	pool.mu.Lock()
	live := pool.store.f
	pool.store.f = closed
	pool.mu.Unlock()
	defer live.Close()

	for i := 0; i < 2; i++ {
		if id, err := cli.Submit(wire.JobSpec{Name: "lost"}); !errors.Is(err, errSubmitRefused) {
			t.Errorf("submit %d to a pool that cannot persist it: id %d, err %v", i, id, err)
		}
	}
	if pool.StoreErr() == nil {
		t.Error("no sticky store error")
	}
	if jobs := pool.List(); len(jobs) != 1 || jobs[0].Name != "kept" {
		t.Errorf("pool after refused submits = %+v", jobs)
	}
}

func TestDurablePoolCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobq.wal")
	p, err := NewDurablePool(path)
	if err != nil {
		t.Fatal(err)
	}
	// Churn well past the compaction threshold; the log must fold back to
	// a snapshot instead of growing without bound.
	for i := 0; i < compactEvery; i++ {
		id := p.Submit(wire.JobSpec{Name: "churn"})
		p.Done(id)
	}
	keep := p.Submit(wire.JobSpec{Name: "keep"})
	p.mu.Lock()
	recs := p.store.recs
	p.mu.Unlock()
	if recs >= compactEvery {
		t.Errorf("log never compacted: %d records pending", recs)
	}
	if err := p.CloseStore(); err != nil {
		t.Fatal(err)
	}
	p2, err := NewDurablePool(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.CloseStore()
	jobs := p2.List()
	if len(jobs) != 1 || jobs[0].ID != keep {
		t.Fatalf("post-compaction recovery = %+v", jobs)
	}
}

func TestClientRetryReportsLastError(t *testing.T) {
	// Nothing listens here; every attempt must fail, and the final error
	// must say how many attempts were made and wrap the underlying cause.
	c := NewClientWith("127.0.0.1:1", ClientConfig{
		Timeout:   200 * time.Millisecond,
		Retries:   2,
		RetryBase: time.Millisecond,
	})
	start := time.Now()
	_, _, err := c.Request(1)
	if err == nil {
		t.Fatal("request to a dead address succeeded")
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Errorf("error does not report the attempt count: %v", err)
	}
	if errors.Unwrap(err) == nil {
		t.Errorf("error does not wrap the underlying cause: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("2 attempts with 1ms base took %v", elapsed)
	}
}

func TestClientRetriesThroughServerRestart(t *testing.T) {
	pool := NewPool()
	srv, err := NewServer(pool, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c := NewClientWith(addr, ClientConfig{Timeout: 2 * time.Second, Retries: 8, RetryBase: 20 * time.Millisecond})
	defer c.Close()
	if _, err := c.Submit(wire.JobSpec{Name: "before"}); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()

	// Bring a server back on the same address while the client is mid-call;
	// its backoff loop should land on the new incarnation.
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Request(1)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	srv2, err := NewServer(pool, addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if err := <-done; err != nil {
		t.Errorf("call did not survive the server restart: %v", err)
	}
}
