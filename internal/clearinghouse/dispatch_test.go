package clearinghouse

import (
	"testing"

	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// TestHeartbeatFoldSameOnBothPayloadForms: a heartbeat reaches the ingest
// loop as a struct (in-memory fabric) or as a view (UDP). In both forms a
// self-reported beat joins the hot batch, and a relayed one (Worker ≠
// From) is left, as a struct, for handle's slow path.
func TestHeartbeatFoldSameOnBothPayloadForms(t *testing.T) {
	for _, form := range []string{"struct", "view"} {
		for _, tc := range []struct {
			name         string
			from, worker types.WorkerID
			folds        bool
		}{
			{"self-reported", 3, 3, true},
			{"relayed", 3, 4, false},
		} {
			t.Run(form+"/"+tc.name, func(t *testing.T) {
				fab := phishnet.NewFabric()
				defer fab.Close()
				spec := wire.JobSpec{ID: 1, Name: "test", RootFn: "root"}
				c := New(spec, fab.Attach(types.ClearinghouseID), DefaultConfig())

				env := &wire.Envelope{Job: 1, From: tc.from, To: types.ClearinghouseID,
					Payload: wire.Heartbeat{Worker: tc.worker}}
				if form == "view" {
					frame, err := wire.Encode(env)
					if err != nil {
						t.Fatal(err)
					}
					if env, err = wire.DecodeView(frame, nil); err != nil {
						t.Fatal(err)
					}
				}
				if got := c.foldHot(env); got != tc.folds {
					t.Fatalf("foldHot = %v, want %v", got, tc.folds)
				}
				_, recv := c.Messages()
				if tc.folds {
					if len(c.hot.Beats) != 1 || c.hot.Beats[0] != tc.from || recv != 1 {
						t.Errorf("hot batch %v, %d received; want [%d], 1", c.hot.Beats, recv, tc.from)
					}
					return
				}
				if c.hot.Len() != 0 || recv != 0 {
					t.Errorf("relayed beat touched the hot path: batch %d, %d received", c.hot.Len(), recv)
				}
				if hb, ok := env.Payload.(wire.Heartbeat); !ok || hb.Worker != tc.worker {
					t.Fatalf("slow path is handed %#v, want the Heartbeat struct", env.Payload)
				}
				c.handle(env)
				if _, recv := c.Messages(); recv != 1 {
					t.Errorf("slow path counted %d received, want 1", recv)
				}
			})
		}
	}
}
