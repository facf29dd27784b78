// Package fib is the paper's first toy application: the naive,
// doubly-recursive Fibonacci computation. It "does almost nothing but
// spawn parallel tasks", which makes it the stress test for scheduling
// overhead — the paper's Table 1 reports its serial slowdown as 4.44 under
// Strata on the CM-5 and 5.90 under Phish on a SparcStation 10.
package fib

import (
	"sync"

	"phish"
)

// TaskCount returns the number of tasks a parallel execution of fib(n)
// creates (fib nodes plus one sum successor per internal node) — the
// conservation invariant checked by the tests.
func TaskCount(n int64) int64 {
	if n < 2 {
		return 1
	}
	return TaskCount(n-1) + TaskCount(n-2) + 2
}

// SynchCount returns the number of worker-side synchronizations a
// parallel execution of fib(n) performs: every leaf and every sum task
// delivers exactly one result, except the topmost sum, whose result goes
// to the clearinghouse and is counted there.
func SynchCount(n int64) int64 {
	if n < 2 {
		return 0 // a lone leaf returns straight to the clearinghouse
	}
	leaves := Serial(n + 1) // fib-tree leaf count
	sums := Serial(n+1) - 1 // one sum per internal node
	return leaves + sums - 1
}

// Serial is the best serial implementation of the same algorithm (plain
// recursion, no task packaging), the denominator of the paper's serial
// slowdown metric.
func Serial(n int64) int64 {
	if n < 2 {
		return n
	}
	return Serial(n-1) + Serial(n-2)
}

func fibTask(c phish.TaskCtx) {
	n := c.Int(0)
	if n < 2 {
		c.Return(n)
		return
	}
	s := c.Successor("fib.sum", 2)
	c.Spawn1("fib", s.Cont(0), n-1)
	c.Spawn1("fib", s.Cont(1), n-2)
}

func sumTask(c phish.TaskCtx) {
	c.Return(c.Int(0) + c.Int(1))
}

var (
	once sync.Once
	prog *phish.Program
)

// Program returns the fib parallel program (a process-wide singleton).
func Program() *phish.Program {
	once.Do(func() {
		prog = phish.NewProgram("fib")
		prog.Register("fib", fibTask)
		prog.Register("fib.sum", sumTask)
	})
	return prog
}

// Root names the program's root task function.
const Root = "fib"

// RootArgs builds the root argument list for fib(n).
func RootArgs(n int64) []phish.Value { return phish.Args(n) }
