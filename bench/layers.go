package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"phish/internal/apps/knary"
	"phish/internal/core"
	"phish/internal/deque"
	"phish/internal/jobmanager"
	"phish/internal/jobq"
	"phish/internal/model"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// layerProbes times each layer through its public functions, with no job
// running: the numbers do not depend on the workload, so every traced pass
// reports the same table and a change to one layer shows in one row. A
// probe that cannot run reports zeros and says why on stderr; it never
// fails the benchmark, whose gate is the jobs' correctness.
func layerProbes(p int, seed int64, ping time.Duration) []metric {
	var out []metric
	out = append(out, metric{Name: "deque.ns_per_pushpop", Unit: "ns", Value: probeDeque()})
	out = append(out, probeWire()...)

	fabRTT, err := probeFabricRTT(ping)
	warn("phishnet fabric ping-pong", err)
	udpRTT, err := probeUDPRTT(ping)
	warn("phishnet UDP ping-pong", err)
	out = append(out,
		metric{Name: "phishnet.fabric_rtt_us_p50", Unit: "us", Value: percentile(fabRTT, 0.5)},
		metric{Name: "phishnet.fabric_rtt_us_p95", Unit: "us", Value: percentile(fabRTT, 0.95)},
		metric{Name: "phishnet.udp_rtt_us_p50", Unit: "us", Value: percentile(udpRTT, 0.5)},
		metric{Name: "phishnet.udp_rtt_us_p95", Unit: "us", Value: percentile(udpRTT, 0.95)},
	)

	rpc, err := probeJobQRPC()
	warn("jobq loopback RPC", err)
	out = append(out,
		metric{Name: "jobq.cycle_ns", Unit: "ns", Value: probeJobQCycle()},
		metric{Name: "jobq.rpc_us", Unit: "us", Value: rpc},
		metric{Name: "jobmanager.pickup_ms", Unit: "ms", Value: probePickup()},
		metric{Name: "clearinghouse.startstop_us", Unit: "us", Value: probeStartStop(p, seed)},
	)
	return out
}

func warn(what string, err error) {
	if err != nil {
		fmt.Fprintf(logw, "bench: %s: %v\n", what, err)
	}
}

// probeDeque is the owner's two operations per task on fib-p1: a push and
// a pop. Each round pushes two and takes one from each end, so the ring
// stays shallow, as it does under LIFO execution.
func probeDeque() float64 {
	const rounds = 1 << 20
	var d deque.Deque[*int]
	v := new(int)
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		d.PushHead(v)
		d.PushHead(v)
		d.PopHead()
		d.PopTail()
	}
	return float64(time.Since(t0).Nanoseconds()) / (2 * rounds)
}

// stealSequence is the four messages of one steal of a flat-steal leaf:
// request, reply carrying the closure, confirm, and the result's Arg.
func stealSequence() []*wire.Envelope {
	leaf := wire.Closure{
		ID:   types.TaskID{Worker: 2, Seq: 7},
		Fn:   knary.Root,
		Args: knary.RootArgs(0, fullSizes.flatFan, fullSizes.flatWork),
		Cont: types.Continuation{Task: types.TaskID{Worker: 2, Seq: 1}, Slot: 6},
	}
	return []*wire.Envelope{
		{Job: 1, From: 3, To: 2, Seq: 1, Payload: wire.StealRequest{Thief: 3}},
		{Job: 1, From: 2, To: 3, Seq: 1, Payload: wire.StealReply{OK: true, Task: leaf}},
		{Job: 1, From: 3, To: 2, Seq: 2, Payload: wire.StealConfirm{Record: leaf.ID}},
		{Job: 1, From: 3, To: 2, Seq: 3, Payload: wire.Arg{Cont: types.Continuation{Task: leaf.ID}, Val: int64(1)}},
	}
}

// probeWire encodes each message of the steal sequence and reads it back
// in place as a view, touching the fields a worker's ingest touches.
// Bytes is what the four frames put on the wire, not what is allocated.
func probeWire() []metric {
	const rounds = 100_000
	seq := stealSequence()
	var scratch []types.Value
	var wireBytes int
	pass := func() error {
		wireBytes = 0
		for _, env := range seq {
			f, err := wire.EncodeFrame(env)
			if err != nil {
				return err
			}
			wireBytes += len(f.Bytes())
			dec, err := wire.DecodeView(f.Bytes(), nil)
			if err != nil {
				f.Free()
				return err
			}
			v, ok := dec.Payload.(*wire.View)
			if !ok {
				return fmt.Errorf("hot payload decoded as %T, not a view", dec.Payload)
			}
			if sr, ok := v.AsStealRequest(); ok {
				_ = sr.Thief()
			} else if rp, ok := v.AsStealReply(); ok {
				cl := rp.Task()
				_, _, _ = cl.ID(), cl.Fn(), cl.Cont()
				if scratch, err = cl.AppendArgs(scratch[:0]); err != nil {
					return err
				}
			} else if sc, ok := v.AsStealConfirm(); ok {
				_ = sc.Record()
			} else if av, ok := v.AsArg(); ok {
				if _, err := av.Val(); err != nil {
					return err
				}
				_ = av.Cont()
			}
			dec.Free()
			f.Free()
		}
		return nil
	}
	if err := pass(); err != nil { // also warms the frame and view pools
		warn("wire steal sequence", err)
		return []metric{
			{Name: "wire.steal_seq_ns", Unit: "ns"},
			{Name: "wire.steal_seq_allocs", Unit: "count"},
			{Name: "wire.steal_seq_bytes", Unit: "B"},
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		_ = pass()
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return []metric{
		{Name: "wire.steal_seq_ns", Unit: "ns", Value: float64(el.Nanoseconds()) / rounds},
		{Name: "wire.steal_seq_allocs", Unit: "count", Value: float64(ms1.Mallocs-ms0.Mallocs) / rounds},
		{Name: "wire.steal_seq_bytes", Unit: "B", Value: float64(wireBytes)},
	}
}

// A transport ping-pong is pingRounds round trips, cut short at a time
// budget: over UDP a round trip is milliseconds (the batch flush timer,
// twice), and ten thousand of them would outlast the run.
const pingRounds = 10_000

// pingPong bounces a StealRequest/refused-StealReply pair between two
// endpoints and returns each round trip in microseconds. The echo side is
// a goroutine that lives until b is closed.
func pingPong(a, b phishnet.Conn, aID, bID types.WorkerID, budget time.Duration) ([]float64, error) {
	var echo sync.WaitGroup
	echo.Add(1)
	go func() {
		defer echo.Done()
		for env := range b.Recv() {
			env.Free()
			_ = b.Send(&wire.Envelope{Job: 1, From: bID, To: aID, Payload: wire.StealReply{}})
		}
	}()
	defer echo.Wait()
	defer b.Close()

	rtts := make([]float64, 0, pingRounds)
	for start := time.Now(); len(rtts) < pingRounds && time.Since(start) < budget; {
		t0 := time.Now()
		if err := a.Send(&wire.Envelope{Job: 1, From: aID, To: bID, Payload: wire.StealRequest{Thief: aID}}); err != nil {
			return rtts, err
		}
		select {
		case env, ok := <-a.Recv():
			if !ok {
				return rtts, phishnet.ErrClosed
			}
			env.Free()
		case <-time.After(time.Second):
			return rtts, fmt.Errorf("no reply within 1 s on round %d", len(rtts))
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return rtts, nil
}

func probeFabricRTT(budget time.Duration) ([]float64, error) {
	fab := phishnet.NewFabric()
	defer fab.Close()
	a, b := fab.Attach(1), fab.Attach(2)
	defer a.Close()
	return pingPong(a, b, 1, 2, budget)
}

func probeUDPRTT(budget time.Duration) ([]float64, error) {
	a, err := phishnet.ListenUDP(1, 1, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer a.Close()
	b, err := phishnet.ListenUDP(1, 2, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	a.SetPeer(2, b.LocalAddr())
	b.SetPeer(1, a.LocalAddr())
	return pingPong(a, b, 1, 2, budget)
}

var probeSpec = wire.JobSpec{Name: "probe", Program: "probe", RootFn: "root"}

// probeJobQCycle is one job's trip through the pool: submit, grant, done.
func probeJobQCycle() float64 {
	const rounds = 200_000
	pool := jobq.NewPool()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		id := pool.Submit(probeSpec)
		pool.Request()
		pool.Done(id)
	}
	return float64(time.Since(t0).Nanoseconds()) / rounds
}

// probeJobQRPC is the same trip over the TCP server on loopback, reported
// per RPC (a trip is three).
func probeJobQRPC() (float64, error) {
	const rounds = 1000
	srv, err := jobq.NewServer(jobq.NewPool(), "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	cl := jobq.NewClient(srv.Addr())
	defer cl.Close()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		id, err := cl.Submit(probeSpec)
		if err != nil {
			return 0, err
		}
		if _, _, err := cl.Request(1); err != nil {
			return 0, err
		}
		if err := cl.Done(id); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Microseconds()) / (3 * rounds), nil
}

// pickupProbe is both halves of a job manager's world: the source it polls
// and the runner it starts. A job becomes available when offered is set to
// the offer's time; Start records how long it waited.
type pickupProbe struct {
	offered atomic.Int64 // UnixNano of the outstanding offer; 0 = pool empty
	waits   chan time.Duration
}

func (s *pickupProbe) Request(types.WorkstationID) (wire.JobSpec, bool, error) {
	return probeSpec, s.offered.Load() != 0, nil
}

func (s *pickupProbe) Start(wire.JobSpec, types.WorkerID) (jobmanager.WorkerProc, error) {
	s.waits <- time.Duration(time.Now().UnixNano() - s.offered.Swap(0))
	return exitedProc{}, nil
}

// exitedProc is a worker that finished its job the moment it started.
type exitedProc struct{}

var closedCh = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (exitedProc) Reclaim()                      {}
func (exitedProc) Done() <-chan struct{}         { return closedCh }
func (exitedProc) LeaveReason() wire.LeaveReason { return wire.LeaveJobDone }

// probePickup is the time work waits for the jobmanager layer: from a job
// appearing in the pool to the manager calling Runner.Start, with the
// macro workload's polling intervals. Offers are staggered across the poll
// period, so the median sits near IdleRetry/2 plus the manager's own cost.
func probePickup() float64 {
	const offers = 60
	s := &pickupProbe{waits: make(chan time.Duration, 1)}
	m := jobmanager.New(1, alwaysIdle, s, s, macroJM)
	go m.Run()
	defer m.Stop()
	waits := make([]float64, 0, offers)
	for i := 0; i < offers; i++ {
		time.Sleep(macroPoll * time.Duration(i%7) / 7)
		s.offered.Store(time.Now().UnixNano())
		select {
		case w := <-s.waits:
			waits = append(waits, float64(w.Nanoseconds())/1e6)
		case <-time.After(time.Second):
			warn("jobmanager pickup", fmt.Errorf("offer %d not picked up within 1 s", i))
			return 0
		}
	}
	return median(waits)
}

// probeStartStop is what a job costs before and after its tasks: the
// median wall clock of a one-task job on the in-memory fabric —
// clearinghouse.New + Run, p registrations, the root result, p
// unregistrations, Stop.
func probeStartStop(p int, seed int64) float64 {
	const rounds = 50
	noop := core.NewProgram("bench.noop")
	noop.Register("root", func(c model.Ctx) { c.Return(int64(1)) })
	j := &job{
		prog: noop, root: "root", p: p, tasks: 1,
		check: func(v types.Value) error {
			if v != int64(1) {
				return errWrongValue
			}
			return nil
		},
	}
	us := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if r := j.run(seed, false); r.err != nil {
			warn("clearinghouse start/stop", r.err)
			return 0
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us)
}
