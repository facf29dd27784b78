package clearinghouse

import (
	"reflect"
	"testing"
	"time"

	"phish/internal/clearinghouse/shardstore"
	"phish/internal/clock"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// TestHeartbeatFoldSameOnBothPayloadForms: a heartbeat reaches the ingest
// loop as the struct its sender built (in-memory fabric) or decoded off the
// wire (UDP; the "view" form, although a heartbeat decodes to a struct),
// and names its sender (self-reported) or another worker (relayed). All
// four take the one handle path: each leaves the named worker's row exactly
// as two direct store heartbeats would — LastHeard, HBSeen and the phi gap
// history — and counts one message received.
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
				fab := phishnet.NewFabric()
				defer fab.Close()
				fake := clock.NewFake()
				cfg := DefaultConfig()
				cfg.Clock = fake
				spec := wire.JobSpec{ID: 1, Name: "test", RootFn: "root"}
				c := New(spec, fab.Attach(types.ClearinghouseID), cfg)
				c.store.Register(worker, info, t0)
				c.store.Heartbeat(worker, t0)
				fake.Advance(time.Second)

				env := &wire.Envelope{Job: 1, From: tc.from, To: types.ClearinghouseID,
					Payload: wire.Heartbeat{Worker: worker}}
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

				if _, recv := c.Messages(); recv != 1 {
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
