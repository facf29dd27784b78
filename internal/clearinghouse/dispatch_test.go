package clearinghouse

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"phish/internal/clearinghouse/shardstore"
	"phish/internal/clock"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// beat is worker id's heartbeat: a stamped report carrying nothing else.
func beat(id types.WorkerID) wire.StatReport {
	return wire.StatReport{Worker: id, SendNS: time.Now().UnixNano()}
}

// newIdleCH builds a clearinghouse on the fake clock, not running, whose
// ingest the test drives by hand, with worker registered at the clock's
// start.
func newIdleCH(t *testing.T, worker types.WorkerID) (*Clearinghouse, *clock.Fake) {
	t.Helper()
	fab := phishnet.NewFabric()
	t.Cleanup(fab.Close)
	fake := clock.NewFake()
	cfg := DefaultConfig()
	cfg.Clock = fake
	c := New(wire.JobSpec{ID: 1, Name: "test", RootFn: "root"}, fab.Attach(types.ClearinghouseID), cfg)
	c.store.Register(worker, wire.MemberInfo{Worker: worker, HostedBy: worker}, fake.Now())
	return c, fake
}

// ingestReport ingests one StatReport from worker, stamped with sendNS.
func ingestReport(c *Clearinghouse, worker types.WorkerID, sendNS int64) {
	c.ingest(&wire.Envelope{Job: 1, From: worker, To: types.ClearinghouseID,
		Payload: wire.StatReport{Worker: worker, SendNS: sendNS}})
}

// TestHeartbeatFoldSameOnBothPayloadForms: a heartbeat — a stamped
// StatReport — reaches the ingest loop as the struct its sender built
// (in-memory fabric) or decoded off the wire (UDP; the "view" form,
// although a StatReport decodes to a struct), and names its sender
// (self-reported) or another worker (relayed). All four take the one handle
// path: each leaves the named worker's row exactly as two direct store
// heartbeats would — LastHeard, HBSeen and the phi gap history — and counts
// one message received.
func TestHeartbeatFoldSameOnBothPayloadForms(t *testing.T) {
	const worker = types.WorkerID(4)
	info := wire.MemberInfo{Worker: worker, HostedBy: worker}
	t0 := clock.NewFake().Now()
	ref := shardstore.New()
	ref.Register(worker, info, t0)
	ref.Heartbeat(worker, t0)
	ref.Heartbeat(worker, t0.Add(time.Second))
	want, _ := ref.Member(worker)

	for _, form := range []string{"struct", "view"} {
		for _, tc := range []struct {
			name string
			from types.WorkerID
		}{
			{"self-reported", worker},
			{"relayed", 3},
		} {
			t.Run(form+"/"+tc.name, func(t *testing.T) {
				c, fake := newIdleCH(t, worker)
				c.store.Heartbeat(worker, t0)
				fake.Advance(time.Second)

				env := &wire.Envelope{Job: 1, From: tc.from, To: types.ClearinghouseID,
					Payload: beat(worker)}
				if form == "view" {
					frame, err := wire.Encode(env)
					if err != nil {
						t.Fatal(err)
					}
					if env, err = wire.DecodeView(frame, nil); err != nil {
						t.Fatal(err)
					}
				}
				c.ingest(env)

				if recv := c.Stats().MessagesReceived; recv != 1 {
					t.Errorf("counted %d received, want 1", recv)
				}
				got, ok := c.store.Member(worker)
				if !ok {
					t.Fatal("worker row vanished")
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("row after ingest = %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestOnlyStampedReportsBeat: the failure detector hears stamped reports
// alone. An unstamped one (a checkpoint publication, the unregister flush)
// refreshes LastHeard and nothing else, so a worker that has sent only
// those is not heartbeat-known, and interleaved with stamped ones they
// leave the phi gap ring exactly as direct store heartbeats at the stamped
// instants build it — over more beats than the ring holds. An untraced
// worker's stamps create no span-sink state.
func TestOnlyStampedReportsBeat(t *testing.T) {
	const worker = types.WorkerID(4)
	c, fake := newIdleCH(t, worker)
	ref := shardstore.New()
	ref.SetPhiSlack(c.cfg.phiSlack())
	ref.Register(worker, wire.MemberInfo{Worker: worker, HostedBy: worker}, fake.Now())

	fake.Advance(300 * time.Millisecond)
	ingestReport(c, worker, 0)
	ref.Touch(worker, fake.Now())
	if m, _ := c.store.Member(worker); m.HBSeen {
		t.Fatal("an unstamped report made the worker heartbeat-known")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		fake.Advance(time.Duration(900+rng.Intn(200)) * time.Millisecond)
		ingestReport(c, worker, fake.Now().UnixNano())
		ref.Heartbeat(worker, fake.Now())
		for j := rng.Intn(3); j > 0; j-- {
			fake.Advance(time.Duration(rng.Intn(300)) * time.Millisecond)
			ingestReport(c, worker, 0)
			ref.Touch(worker, fake.Now())
		}
	}
	got, _ := c.store.Member(worker)
	want, _ := ref.Member(worker)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("row after 40 stamped and interleaved unstamped reports = %+v\nwant %+v", got, want)
	}
	later := fake.Now().Add(1500 * time.Millisecond)
	gotPhi, gotWarm := c.store.Phi(worker, later)
	wantPhi, wantWarm := ref.Phi(worker, later)
	if gotPhi != wantPhi || gotWarm != wantWarm || !gotWarm {
		t.Errorf("phi %v (warm %v), want %v (warm %v)", gotPhi, gotWarm, wantPhi, wantWarm)
	}
	if n := len(c.spans.perW); n != 0 {
		t.Errorf("an untraced worker's reports left span-sink state for %d worker(s)", n)
	}
}

// TestStampedReportFromEvictedCountsOneFalseEviction: a worker the sweep
// evicted that is heard from again proves the detector wrong once. Its
// unstamped reports are no proof, and beats after the first count nothing.
func TestStampedReportFromEvictedCountsOneFalseEviction(t *testing.T) {
	const worker = types.WorkerID(4)
	c, fake := newIdleCH(t, worker)
	c.evicted[worker] = fake.Now()
	ingestReport(c, worker, 0)
	if n := c.counters.FalseEvictions.Load(); n != 0 {
		t.Fatalf("an unstamped report counted %d false evictions", n)
	}
	for i := 0; i < 3; i++ {
		ingestReport(c, worker, fake.Now().UnixNano())
	}
	if n := c.counters.FalseEvictions.Load(); n != 1 {
		t.Errorf("three beats from an evicted worker counted %d false evictions, want 1", n)
	}
}
