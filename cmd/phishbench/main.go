// Command phishbench regenerates the paper's evaluation: Table 1 (serial
// slowdown), Figure 4 (pfold execution time vs participants), Figure 5
// (pfold speedup), and Table 2 (message and scheduling statistics),
// printing each next to the published numbers.
//
// Usage:
//
//	phishbench                 # everything, laptop-sized
//	phishbench -exp table1     # one experiment
//	phishbench -pfold-n 18 -ps 1,2,4,8,16,32 -exp fig5
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
	exp := flag.String("exp", "all", "experiment: table1, fig4, fig5, table2, speedup-all, schedbench, chbench, migrate, crit, chaos, all")
	schedOut := flag.String("sched-out", "BENCH_sched.json", "output path for the schedbench/chbench JSON baseline")
	migrateOut := flag.String("migrate-out", "BENCH_migrate.json", "output path for the migration soak JSON baseline")
	traceOut := flag.String("trace-out", "BENCH_trace.json", "output path for the crit (trace accounting) JSON baseline")
	chaosOut := flag.String("chaos-out", "BENCH_chaos.json", "output path for the failure-detector chaos JSON baseline")
	check := flag.Bool("check", false, "migrate/crit/chaos: compare against the recorded baseline and exit nonzero on regression instead of rewriting it")
	chShards := flag.String("ch-shards", "", "chbench shard counts, e.g. 1,4,16,64")
	chWorkers := flag.String("ch-workers", "", "chbench simulated worker populations, e.g. 1000,10000,100000")
	chIters := flag.Int("ch-iters", 0, "chbench hot-path rounds per ingest goroutine")
	fibN := flag.Int64("fib-n", 0, "fib input (0 = default)")
	nqN := flag.Int("nqueens-n", 0, "nqueens input")
	pfoldN := flag.Int("pfold-n", 0, "pfold polymer length")
	pfoldTh := flag.Int("pfold-threshold", 0, "pfold serial threshold")
	rayW := flag.Int("ray-w", 0, "ray image width")
	rayH := flag.Int("ray-h", 0, "ray image height")
	repeats := flag.Int("repeats", 0, "timing repetitions (median reported)")
	psFlag := flag.String("ps", "", "participant counts, e.g. 1,2,4,8,16,32")
	flag.Parse()

	o := harness.DefaultOptions()
	if *fibN > 0 {
		o.FibN = *fibN
	}
	if *nqN > 0 {
		o.NQueensN = *nqN
	}
	if *pfoldN > 0 {
		o.PfoldN = *pfoldN
	}
	if *pfoldTh > 0 {
		o.PfoldThreshold = *pfoldTh
	}
	if *rayW > 0 {
		o.RayW = *rayW
	}
	if *rayH > 0 {
		o.RayH = *rayH
	}
	if *repeats > 0 {
		o.Repeats = *repeats
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
	if ps := parseInts("-ps", *psFlag); ps != nil {
		o.Ps = ps
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	did := false

	if run("table1") {
		did = true
		rows, err := o.Table1()
		if err != nil {
			log.Fatalf("phishbench: %v", err)
		}
		harness.PrintTable1(os.Stdout, rows)
		fmt.Println()
	}

	var pts []harness.ScalingPoint
	if run("fig4") || run("fig5") {
		var err error
		pts, err = o.PfoldScaling()
		if err != nil {
			log.Fatalf("phishbench: %v", err)
		}
	}
	if run("fig4") {
		did = true
		harness.PrintFig4(os.Stdout, pts)
		fmt.Println()
	}
	if run("fig5") {
		did = true
		harness.PrintFig5(os.Stdout, pts)
		fmt.Println()
	}
	if run("table2") {
		did = true
		t2, err := o.Table2()
		if err != nil {
			log.Fatalf("phishbench: %v", err)
		}
		harness.PrintTable2(os.Stdout, t2)
		fmt.Println()
	}
	if *exp == "speedup-all" {
		// The paper: "all 4 of our applications demonstrate similar
		// speedups, but for lack of space we only present the pfold data."
		did = true
		for _, name := range []string{"fib", "nqueens", "ray", "pfold"} {
			pts, err := o.AppScaling(name)
			if err != nil {
				log.Fatalf("phishbench: %v", err)
			}
			fmt.Printf("speedup — %s\n", name)
			harness.PrintFig5(os.Stdout, pts)
			fmt.Println()
		}
	}
	if run("schedbench") {
		did = true
		rs, err := o.SchedBench()
		if err != nil {
			log.Fatalf("phishbench: %v", err)
		}
		harness.PrintSchedBench(os.Stdout, rs)
		if err := harness.WriteSchedBenchJSON(*schedOut, rs); err != nil {
			log.Fatalf("phishbench: write %s: %v", *schedOut, err)
		}
		fmt.Printf("\nwrote %s\n", *schedOut)
	}
	if run("chbench") {
		did = true
		cfg := harness.DefaultCHBenchConfig()
		if s := parseInts("-ch-shards", *chShards); s != nil {
			cfg.Shards = s
		}
		if w := parseInts("-ch-workers", *chWorkers); w != nil {
			cfg.Workers = w
		}
		if *chIters > 0 {
			cfg.Iters = *chIters
		}
		rs := harness.CHBench(cfg)
		harness.PrintCHBench(os.Stdout, rs)
		if err := harness.WriteCHBenchJSON(*schedOut, rs); err != nil {
			log.Fatalf("phishbench: write %s: %v", *schedOut, err)
		}
		fmt.Printf("\nwrote %s\n", *schedOut)
	}
	if run("migrate") {
		did = true
		f, err := harness.MigrateBench(harness.DefaultMigrateBenchConfig())
		if err != nil {
			log.Fatalf("phishbench: %v", err)
		}
		harness.PrintMigrateBench(os.Stdout, f)
		if *check {
			base, err := harness.ReadMigrateBenchJSON(*migrateOut)
			if err != nil {
				log.Fatalf("phishbench: read %s: %v", *migrateOut, err)
			}
			if err := harness.CheckMigrate(base, f); err != nil {
				log.Fatalf("phishbench: %v", err)
			}
			fmt.Printf("\nmigration soak within baseline (%s)\n", *migrateOut)
		} else {
			if err := harness.WriteMigrateBenchJSON(*migrateOut, f); err != nil {
				log.Fatalf("phishbench: write %s: %v", *migrateOut, err)
			}
			fmt.Printf("\nwrote %s\n", *migrateOut)
		}
	}
	if run("crit") {
		did = true
		cfg := harness.DefaultCritBenchConfig()
		if *fibN > 0 {
			cfg.FibN = *fibN
		}
		if *pfoldN > 0 {
			cfg.PfoldN = *pfoldN
		}
		if *pfoldTh > 0 {
			cfg.PfoldThreshold = *pfoldTh
		}
		f, err := harness.CritBench(cfg)
		if err != nil {
			log.Fatalf("phishbench: %v", err)
		}
		harness.PrintCritBench(os.Stdout, f)
		if *check {
			if err := harness.CheckCrit(f); err != nil {
				log.Fatalf("phishbench: %v", err)
			}
			fmt.Println("\ntrace accounting coherent")
		} else {
			if err := harness.WriteCritBenchJSON(*traceOut, f); err != nil {
				log.Fatalf("phishbench: write %s: %v", *traceOut, err)
			}
			fmt.Printf("\nwrote %s\n", *traceOut)
		}
	}
	if run("chaos") {
		did = true
		f, err := harness.ChaosBench(harness.DefaultChaosBenchConfig())
		if err != nil {
			log.Fatalf("phishbench: %v", err)
		}
		harness.PrintChaosBench(os.Stdout, f)
		if *check {
			base, err := harness.ReadChaosBenchJSON(*chaosOut)
			if err != nil {
				log.Fatalf("phishbench: read %s: %v", *chaosOut, err)
			}
			if err := harness.CheckChaos(base, f); err != nil {
				log.Fatalf("phishbench: %v", err)
			}
			fmt.Printf("\nfailure-detector contract holds (%s)\n", *chaosOut)
		} else {
			if err := harness.WriteChaosBenchJSON(*chaosOut, f); err != nil {
				log.Fatalf("phishbench: write %s: %v", *chaosOut, err)
			}
			fmt.Printf("\nwrote %s\n", *chaosOut)
		}
	}
	if !did {
		log.Fatalf("phishbench: unknown experiment %q (table1, fig4, fig5, table2, speedup-all, schedbench, chbench, migrate, crit, chaos, all)", *exp)
	}
}
