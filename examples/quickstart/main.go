// Quickstart: define a parallel program in the continuation-passing style
// and run it on an in-process Phish cluster.
//
//	go run ./examples/quickstart
//
// The program computes fib(30) the naive way — every + becomes a join of
// two child tasks — on 4 workers connected by the in-memory fabric, and
// prints the scheduling statistics that the paper's Table 2 reports.
package main

import (
	"fmt"
	"log"

	"phish"
)

func main() {
	// A Program is a named bag of task functions; every worker of a job
	// runs the same program, so tasks can be shipped between workers as a
	// function name plus arguments.
	prog := phish.NewProgram("quickstart")

	// A task either returns a value to its continuation...
	prog.Register("fib", func(c phish.TaskCtx) {
		n := c.Int(0)
		if n < 2 {
			c.Return(n)
			return
		}
		// ...or spawns children plus a successor that joins their
		// results. The successor inherits this task's continuation.
		s := c.Successor("sum", 2)
		c.Spawn1("fib", s.Cont(0), n-1)
		c.Spawn1("fib", s.Cont(1), n-2)
	})
	prog.Register("sum", func(c phish.TaskCtx) {
		c.Return(c.Int(0) + c.Int(1))
	})

	res, err := phish.RunLocal(prog, "fib", phish.Args(int64(30)), phish.LocalOptions{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fib(30) = %d   (elapsed %v on %d workers)\n\n",
		res.Value, res.Elapsed.Round(1e6), len(res.Workers))
	fmt.Println("scheduling statistics (the paper's Table 2 counters):")
	fmt.Printf("  %v\n\n", res.Totals)
	fmt.Println("per worker:")
	for _, w := range res.Workers {
		fmt.Printf("  worker %d: executed %8d, stole %3d, max in use %3d\n",
			w.Worker, w.TasksExecuted, w.TasksStolen, w.MaxTasksInUse)
	}
	fmt.Println("\nNote how few tasks were stolen relative to the millions executed —")
	fmt.Println("LIFO execution plus FIFO stealing preserves locality (paper, §2).")
}
