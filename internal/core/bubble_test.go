//go:build goexperiment.synctest

// Go 1.24's testing/synctest needs the timers of Go 1.23, which go.mod's
// language version turns off.
//go:debug asynctimerchan=0

package core

import (
	"testing"
	"testing/synctest"
	"time"

	"phish/internal/clock"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// In a testing/synctest bubble time passes only while every goroutine in it
// is blocked, so a wait that watches the clock without blocking never ends.
// These tests run the steal path's waits in a bubble; each hangs if its
// wait is bounded by the clock alone.

// A thief's spin for the steal reply ends although the clock does not move
// while it spins, and the thief then parks until the steal's deadline.
func TestStealSpinEndsWhenTheClockStandsStill(t *testing.T) {
	synctest.Run(func() {
		fab := phishnet.NewFabric()
		defer fab.Close()
		w := NewWorker(1, 0, NewProgram("none"), fab.Attach(0), DefaultConfig(), clock.System)
		start := time.Now()
		w.stealPending = true
		w.stealDeadline = start.Add(w.cfg.StealTimeout)
		w.awaitSteal()
		if got := time.Since(start); got != w.cfg.StealTimeout {
			t.Errorf("the thief waited %v for a reply that never came, want the steal timeout %v", got, w.cfg.StealTimeout)
		}
	})
}

// A steal whose victim never answers times out when its deadline comes, not
// only once the clock is past it: in a bubble the thief wakes exactly at
// the deadline, and a thief that waited for "after" would wait zero
// nanoseconds over and over at that instant.
func TestStealTimesOutAtItsDeadline(t *testing.T) {
	synctest.Run(func() {
		fab := phishnet.NewFabric()
		defer fab.Close()
		port, silent, ch := fab.Attach(0), fab.Attach(1), fab.Attach(types.ClearinghouseID)
		port.SetPeer(types.ClearinghouseID, ch.LocalAddr())
		port.SetPeer(1, silent.LocalAddr())
		ch.SetPeer(0, port.LocalAddr())
		go func() {
			// The clearinghouse: it registers the worker into a job whose
			// only other member, the victim, never reads its inbox.
			for env := range ch.Recv() {
				if env.Materialize() == nil {
					if _, ok := env.Payload.(wire.Register); ok {
						_ = ch.Send(&wire.Envelope{Job: 1, From: types.ClearinghouseID, To: 0, Payload: wire.RegisterReply{
							View: wire.MembershipView{Epoch: 1, Members: []wire.MemberInfo{{Worker: 0, HostedBy: 0}, {Worker: 1, HostedBy: 1}}}}})
					}
				}
			}
		}()
		cfg := DefaultConfig()
		cfg.HeartbeatEvery = 0
		w := NewWorker(1, 0, NewProgram("none"), port, cfg, clock.System)
		done := make(chan struct{})
		go func() {
			_ = w.Run()
			close(done)
		}()
		time.Sleep(3 * cfg.StealTimeout)
		if got := w.Counters().FailedSteals.Load(); got == 0 {
			t.Errorf("no steal timed out in %v of a victim's silence (steal timeout %v)", 3*cfg.StealTimeout, cfg.StealTimeout)
		}
		w.Crash()
		<-done
	})
}
