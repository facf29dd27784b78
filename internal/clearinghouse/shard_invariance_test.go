package clearinghouse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"phish/internal/clock"
	"phish/internal/phishnet"
	"phish/internal/stats"
	"phish/internal/types"
	"phish/internal/wire"
)

// storeOp is one recorded mutation, replayable against any shard count.
type storeOp struct {
	kind int // 0 register, 1 heartbeat, 2 report, 3 depart, 4 remove
	id   types.WorkerID
	rep  wire.StatReport
	at   time.Duration // offset from the fake clock's origin
}

// genOps builds a random operation trace over a random population:
// registrations, heartbeats, piggybacked reports (with histogram state),
// departures, and crashes, in interleaved order.
func genOps(rng *rand.Rand, pop int) []storeOp {
	var ops []storeOp
	for i := 0; i < pop; i++ {
		id := types.WorkerID(rng.Intn(3 * pop)) // collisions exercise re-register
		ops = append(ops, storeOp{kind: 0, id: id, at: time.Duration(i) * time.Millisecond})
		n := rng.Intn(4)
		for j := 0; j < n; j++ {
			switch rng.Intn(5) {
			case 0:
				ops = append(ops, storeOp{kind: 1, id: id,
					at: time.Duration(rng.Intn(5000)) * time.Millisecond})
			case 1, 2:
				counters := make([]int64, len(stats.OrderedNames))
				for k := range counters {
					counters[k] = int64(rng.Intn(1000))
				}
				rep := wire.StatReport{
					Worker:   id,
					Deque:    int32(rng.Intn(64)),
					Counters: counters,
				}
				if rng.Intn(2) == 0 {
					rep.Hists = []wire.HistState{{
						Kind:   int32(rng.Intn(3)),
						Count:  int64(rng.Intn(100)),
						Sum:    int64(rng.Intn(100000)),
						Counts: []int64{int64(rng.Intn(10)), int64(rng.Intn(10))},
					}}
				}
				ops = append(ops, storeOp{kind: 2, id: id, rep: rep,
					at: time.Duration(rng.Intn(5000)) * time.Millisecond})
			case 3:
				ops = append(ops, storeOp{kind: 3, id: id})
			case 4:
				ops = append(ops, storeOp{kind: 4, id: id})
			}
		}
	}
	return ops
}

// applyOps replays the trace against ch's store, exactly as the ingest
// path would.
func applyOps(ch *Clearinghouse, ops []storeOp, origin time.Time) {
	for _, op := range ops {
		now := origin.Add(op.at)
		switch op.kind {
		case 0:
			ch.store.Register(op.id, wire.MemberInfo{Worker: op.id, HostedBy: op.id,
				Site: int32(op.id % 7)}, now)
		case 1:
			ch.store.Heartbeat(op.id, now)
		case 2:
			ch.store.FoldReport(op.rep, now)
		case 3:
			if ch.store.IsLive(op.id) {
				ch.store.Depart(op.id, op.id)
			}
		case 4:
			ch.store.Remove(op.id)
		}
	}
}

// TestSnapshotShardInvariance: for random populations, traces, and shard
// counts, the merge-over-shards ClusterSnapshot must be byte-identical to
// the flat single-shard rollup — sharding is a locking strategy, never an
// observable behavior change.
func TestSnapshotShardInvariance(t *testing.T) {
	f := func(seed int64, shardsRaw uint8, popRaw uint8) bool {
		shards := int(shardsRaw)%64 + 2 // 2..65, never the trivial 1
		pop := int(popRaw)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		ops := genOps(rng, pop)

		build := func(n int) *Clearinghouse {
			cfg := DefaultConfig()
			cfg.Shards = n
			cfg.Clock = clock.NewFake()
			spec := wire.JobSpec{ID: 1, Name: "quick", RootFn: "root"}
			return New(spec, phishnet.NewFabric().Attach(types.ClearinghouseID), cfg)
		}
		flat, sharded := build(1), build(shards)
		applyOps(flat, ops, flat.clk.Now())
		applyOps(sharded, ops, sharded.clk.Now())

		a, err := json.Marshal(flat.ClusterSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(sharded.ClusterSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Logf("shards=%d pop=%d seed=%d\nflat:    %s\nsharded: %s",
				shards, pop, seed, a, b)
			return false
		}
		return flat.store.Epoch() == sharded.store.Epoch()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestJournalRecoveryAcrossShardCounts: a journal written under one shard
// count must recover identically under any other — the journal is
// shard-agnostic, so operators can retune -shards across restarts.
func TestJournalRecoveryAcrossShardCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reshard.jnl")
	jnl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Shards = 4
	cfg.Journal = jnl
	fab := phishnet.NewFabric()
	spec := wire.JobSpec{ID: 1, Name: "test", RootFn: "root", RootArgs: []types.Value{int64(1)}}
	ch := New(spec, fab.Attach(types.ClearinghouseID), cfg)
	go ch.Run()

	send := func(port *phishnet.Port, from types.WorkerID, payload any) {
		t.Helper()
		if err := port.Send(&wire.Envelope{Job: 1, From: from, To: types.ClearinghouseID, Payload: payload}); err != nil {
			t.Fatalf("send %T: %v", payload, err)
		}
	}
	// Membership churn: 6 joins, one clean leave, one crash.
	ports := map[types.WorkerID]*phishnet.Port{}
	for id := types.WorkerID(10); id < 16; id++ {
		p := fab.Attach(id)
		ports[id] = p
		send(p, id, wire.Register{Worker: id})
		if id == 10 {
			expect[wire.SpawnRoot](t, p, time.Second)
		} else {
			expect[wire.RegisterReply](t, p, time.Second)
		}
	}
	send(ports[13], 13, wire.Unregister{Worker: 13, Reason: wire.LeaveReclaimed})
	send(ports[14], 14, wire.Unregister{Worker: 14, Reason: wire.LeaveCrash})
	expect[wire.WorkerDown](t, ports[10], 2*time.Second)

	waitLive := func(c *Clearinghouse, want int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for len(c.LiveWorkers()) != want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := c.LiveWorkers(); len(got) != want {
			t.Fatalf("live = %v, want %d workers", got, want)
		}
	}
	waitLive(ch, 4)

	ch.Stop()
	_ = jnl.Close()
	fab.Close()

	rec, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}

	// Recover the same journal under wildly different shard counts: the
	// visible state must not depend on the stripe layout.
	type visible struct {
		Live  []types.WorkerID
		Epoch uint64
		Snap  string
	}
	see := func(shards int) visible {
		cfg := DefaultConfig()
		cfg.Shards = shards
		cfg.Clock = clock.NewFake()
		c := NewFromRecovery(rec, phishnet.NewFabric().Attach(types.ClearinghouseID), cfg)
		snap, err := json.Marshal(c.ClusterSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		return visible{Live: c.LiveWorkers(), Epoch: c.store.Epoch(), Snap: string(snap)}
	}
	want := see(1)
	if len(want.Live) != 4 {
		t.Fatalf("recovered live = %v, want 4 workers", want.Live)
	}
	for _, shards := range []int{3, 16, 64} {
		got := see(shards)
		if fmt.Sprint(got.Live) != fmt.Sprint(want.Live) {
			t.Errorf("shards=%d: live = %v, want %v", shards, got.Live, want.Live)
		}
		if got.Epoch != want.Epoch {
			t.Errorf("shards=%d: epoch = %d, want %d", shards, got.Epoch, want.Epoch)
		}
		if got.Snap != want.Snap {
			t.Errorf("shards=%d: snapshot diverged\n got %s\nwant %s", shards, got.Snap, want.Snap)
		}
	}
}
