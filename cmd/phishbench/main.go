// Command phishbench regenerates the paper's evaluation: Table 1 (serial
// slowdown), Figure 4 (pfold execution time vs participants), Figure 5
// (pfold speedup), and Table 2 (message and scheduling statistics),
// printing each next to the published numbers. It also runs the gate
// experiments (migrate, chaos), which record a BENCH_*.json
// baseline or, with -check, compare against it; those run only when named.
//
// Usage:
//
//	phishbench                          # the paper's evaluation, laptop-sized
//	phishbench -exp table1              # one experiment
//	phishbench -pfold-n 18 -ps 1,2,4,8,16,32 -exp fig5
//	phishbench -exp migrate -check      # a gate against its baseline
//
// Absolute times are this machine's; the comparison is about shape (see
// EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"phish/internal/harness"
)

func main() {
	migrateOut := flag.String("migrate-out", "BENCH_migrate.json", "output path for the migration soak JSON baseline")
	chaosOut := flag.String("chaos-out", "BENCH_chaos.json", "output path for the failure-detector chaos JSON baseline")
	check := flag.Bool("check", false, "migrate/chaos: compare against the recorded baseline and exit nonzero on regression instead of rewriting it")
	o := harness.DefaultOptions()
	flag.Int64Var(&o.FibN, "fib-n", o.FibN, "fib input")
	flag.IntVar(&o.NQueensN, "nqueens-n", o.NQueensN, "nqueens input")
	flag.IntVar(&o.PfoldN, "pfold-n", o.PfoldN, "pfold polymer length")
	flag.IntVar(&o.PfoldThreshold, "pfold-threshold", o.PfoldThreshold, "pfold serial threshold")
	flag.IntVar(&o.RayW, "ray-w", o.RayW, "ray image width")
	flag.IntVar(&o.RayH, "ray-h", o.RayH, "ray image height")
	flag.IntVar(&o.Repeats, "repeats", o.Repeats, "timing repetitions (median reported)")
	psFlag := flag.String("ps", "", "participant counts, e.g. 1,2,4,8,16,32")

	must := func(err error) {
		if err != nil {
			log.Fatalf("phishbench: %v", err)
		}
	}
	parseInts := func(name, val string) []int {
		if val == "" {
			return nil
		}
		var ns []int
		for _, s := range strings.Split(val, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				log.Fatalf("phishbench: bad %s entry %q", name, s)
			}
			ns = append(ns, n)
		}
		return ns
	}
	var pts []harness.ScalingPoint
	scaling := func() []harness.ScalingPoint { // fig4 and fig5 share one sweep
		if pts == nil {
			var err error
			pts, err = o.PfoldScaling()
			must(err)
		}
		return pts
	}

	// experiments lists every -exp mode once. "all" runs the paper's
	// evaluation; the others run only when named.
	experiments := []struct {
		name  string
		paper bool
		run   func()
	}{
		{"table1", true, func() {
			rows, err := o.Table1()
			must(err)
			harness.PrintTable1(os.Stdout, rows)
			fmt.Println()
		}},
		{"fig4", true, func() {
			harness.PrintFig4(os.Stdout, scaling())
			fmt.Println()
		}},
		{"fig5", true, func() {
			harness.PrintFig5(os.Stdout, scaling())
			fmt.Println()
		}},
		{"table2", true, func() {
			t2, err := o.Table2()
			must(err)
			harness.PrintTable2(os.Stdout, t2)
			fmt.Println()
		}},
		{"speedup-all", false, func() {
			// The paper: "all 4 of our applications demonstrate similar
			// speedups, but for lack of space we only present the pfold data."
			for _, name := range []string{"fib", "nqueens", "ray", "pfold"} {
				pts, err := o.AppScaling(name)
				must(err)
				fmt.Printf("speedup — %s\n", name)
				harness.PrintFig5(os.Stdout, pts)
				fmt.Println()
			}
		}},
		{"migrate", false, func() {
			f, err := harness.MigrateBench(harness.DefaultMigrateBenchConfig())
			must(err)
			harness.PrintMigrateBench(os.Stdout, f)
			if *check {
				base, err := harness.ReadMigrateBenchJSON(*migrateOut)
				if err != nil {
					log.Fatalf("phishbench: read %s: %v", *migrateOut, err)
				}
				must(harness.CheckMigrate(base, f))
				fmt.Printf("\nmigration soak within baseline (%s)\n", *migrateOut)
				return
			}
			if err := harness.WriteMigrateBenchJSON(*migrateOut, f); err != nil {
				log.Fatalf("phishbench: write %s: %v", *migrateOut, err)
			}
			fmt.Printf("\nwrote %s\n", *migrateOut)
		}},
		{"chaos", false, func() {
			f, err := harness.ChaosBench(harness.DefaultChaosBenchConfig())
			must(err)
			harness.PrintChaosBench(os.Stdout, f)
			if *check {
				base, err := harness.ReadChaosBenchJSON(*chaosOut)
				if err != nil {
					log.Fatalf("phishbench: read %s: %v", *chaosOut, err)
				}
				must(harness.CheckChaos(base, f))
				fmt.Printf("\nfailure-detector contract holds (%s)\n", *chaosOut)
				return
			}
			if err := harness.WriteChaosBenchJSON(*chaosOut, f); err != nil {
				log.Fatalf("phishbench: write %s: %v", *chaosOut, err)
			}
			fmt.Printf("\nwrote %s\n", *chaosOut)
		}},
	}
	var names, paper []string
	for _, e := range experiments {
		names = append(names, e.name)
		if e.paper {
			paper = append(paper, e.name)
		}
	}
	exp := flag.String("exp", "all", fmt.Sprintf("experiment: %s, or all (%s)",
		strings.Join(names, ", "), strings.Join(paper, ", ")))
	flag.Parse()
	if ps := parseInts("-ps", *psFlag); ps != nil {
		o.Ps = ps
	}

	did := false
	for _, e := range experiments {
		if *exp == e.name || (*exp == "all" && e.paper) {
			did = true
			e.run()
		}
	}
	if !did {
		log.Fatalf("phishbench: unknown experiment %q (%s, all)", *exp, strings.Join(names, ", "))
	}
}
