package core_test

import (
	"testing"
	"time"

	"phish/internal/clearinghouse"
	"phish/internal/clock"
	"phish/internal/core"
	"phish/internal/model"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// BenchmarkTaskThroughput measures the end-to-end cost of one task under
// the full Phish runtime — spawn, deque, join, synchronization — which is
// the per-task overhead behind Table 1's slowdown numbers. Reported as
// ns/task.
func BenchmarkTaskThroughput(b *testing.B) {
	// A chain program: each task spawns one successor until n runs out —
	// a pure spawn/execute/synch cycle with no fan-out noise.
	prog := core.NewProgram("chainbench")
	prog.Register("chain", func(c model.Ctx) {
		n := c.Int(0)
		if n == 0 {
			c.Return(int64(0))
			return
		}
		s := c.Successor("pass", 1)
		c.Spawn1("chain", s.Cont(0), n-1)
	})
	prog.Register("pass", func(c model.Ctx) { c.Return(c.Int(0)) })

	const chain = 100000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fab := phishnet.NewFabric()
		spec := wire.JobSpec{ID: 1, Name: "chainbench", Program: "chainbench",
			RootFn: "chain", RootArgs: []types.Value{int64(chain)}}
		ch := clearinghouse.New(spec, fab.Attach(types.ClearinghouseID), clearinghouse.DefaultConfig())
		go ch.Run()
		w := core.NewWorker(1, 0, prog, fab.Attach(0), core.DefaultConfig(), clock.System)
		done := make(chan struct{})
		go func() { _ = w.Run(); close(done) }()
		start := time.Now()
		if _, err := ch.WaitResult(2 * time.Minute); err != nil {
			b.Fatal(err)
		}
		<-done
		elapsed := time.Since(start)
		tasks := w.Stats().TasksExecuted
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(tasks), "ns/task")
		ch.Stop()
		fab.Close()
	}
}

// The per-cycle steal benchmark lives in steal_bench_test.go (package
// core): BenchmarkStealRoundTrip drives one request/grant/adopt/confirm
// cycle per iteration, on the pointer-passing fabric and through the wire.
