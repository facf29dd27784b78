package strata

import (
	"reflect"
	"testing"

	"phish"
	"phish/internal/apps/fib"
	"phish/internal/apps/nqueens"
	"phish/internal/apps/pfold"
	"phish/internal/core"
	"phish/internal/model"
	"phish/internal/types"
)

func TestFibOnStrata(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		res, err := Run(fib.Program(), fib.Root, fib.RootArgs(18), p, DefaultConfig())
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if got, want := res.Value.(int64), fib.Serial(18); got != want {
			t.Errorf("P=%d: fib(18) = %d, want %d", p, got, want)
		}
	}
}

func TestTaskConservation(t *testing.T) {
	const n = 16
	res, err := Run(fib.Program(), fib.Root, fib.RootArgs(n), 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Totals.TasksExecuted, fib.TaskCount(n); got != want {
		t.Errorf("tasks executed = %d, want %d", got, want)
	}
	if got, want := res.Totals.Synchronizations, fib.SynchCount(n); got != want {
		t.Errorf("synchronizations = %d, want %d", got, want)
	}
	if res.Totals.MessagesSent != 0 {
		t.Errorf("strata sent %d messages; shared memory should send none", res.Totals.MessagesSent)
	}
}

func TestNQueensOnStrata(t *testing.T) {
	res, err := Run(nqueens.Program(), nqueens.Root, nqueens.RootArgs(8), 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value.(int64); got != 92 {
		t.Errorf("nqueens(8) = %d, want 92", got)
	}
}

func TestPfoldOnStrata(t *testing.T) {
	want := pfold.Serial(9)
	res, err := Run(pfold.Program(), pfold.Root, pfold.RootArgs(9, 3), 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value.([]int64); !reflect.DeepEqual(got, want) {
		t.Errorf("pfold(9) histogram mismatch\n got %v\nwant %v", got, want)
	}
}

func TestSingleProcNoSteals(t *testing.T) {
	res, err := Run(fib.Program(), fib.Root, fib.RootArgs(12), 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.TasksStolen != 0 || res.Totals.NonLocalSynchs != 0 {
		t.Errorf("single processor stole %d tasks, %d non-local synchs; want 0/0",
			res.Totals.TasksStolen, res.Totals.NonLocalSynchs)
	}
}

func TestAblationDisciplinesStillCorrect(t *testing.T) {
	cfgs := map[string]Config{
		"fifo-local":  {Seed: 1, LocalOrder: 1 /* FIFO */},
		"steal-head":  {Seed: 1, StealFrom: 1 /* head */},
		"round-robin": {Seed: 1, Victim: 1 /* round robin */},
	}
	for name, cfg := range cfgs {
		res, err := Run(fib.Program(), fib.Root, fib.RootArgs(15), 4, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := res.Value.(int64), fib.Serial(15); got != want {
			t.Errorf("%s: fib(15) = %d, want %d", name, got, want)
		}
	}
}

// A task body sees the same arguments on both runtimes: the runtime copies
// what Spawn is handed, so a body may reuse one argument slice across
// Spawns, and Int reads every integer width a value can arrive in (here a
// uint64 root argument and an int32).
func TestArgumentsAgreeWithCore(t *testing.T) {
	prog := core.NewProgram("args")
	prog.Register("root", func(c model.Ctx) {
		s := c.Successor("sum", 3)
		args := []types.Value{c.Int(0)}
		c.Spawn("leaf", s.Cont(0), args...)
		args[0] = int64(20)
		c.Spawn("leaf", s.Cont(1), args...)
		c.Spawn1("leaf", s.Cont(2), int32(300))
	})
	prog.Register("leaf", func(c model.Ctx) { c.Return(c.Int(0)) })
	prog.Register("sum", func(c model.Ctx) { c.Return(c.Int(0) + c.Int(1) + c.Int(2)) })
	root := []types.Value{uint64(1)}
	const want = int64(321)

	res, err := Run(prog, "root", root, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want {
		t.Errorf("strata: %v, want %d", res.Value, want)
	}
	local, err := phish.RunLocal(prog, "root", root, phish.LocalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if local.Value != want {
		t.Errorf("core: %v, want %d", local.Value, want)
	}
}
