package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json the self-agreement check
// needs: which workloads exist and how far each end-to-end metric may move.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareRuns is the self-agreement check: two sets of runs of the same
// tree must agree, so for every workload and every end-to-end metric run B
// may be worse than run A by at most the metric's own bound. It prints one
// row per pairing and fails if any is out of bound.
func compareRuns(w io.Writer, benchmarkPath, dirA, dirB string) error {
	var bf benchmarkFile
	if err := readJSON(benchmarkPath, &bf); err != nil {
		return err
	}
	value := func(dir, workload, name string) (float64, error) {
		var rep report
		if err := readJSON(filepath.Join(dir, workload+"."+passName(false)+".json"), &rep); err != nil {
			return 0, err
		}
		if rep.Failed > 0 {
			return 0, fmt.Errorf("%s in %s: %d of %d jobs failed", workload, dir, rep.Failed, rep.Attempted)
		}
		for _, m := range rep.EndToEnd {
			if m.Name == name {
				return m.Value, nil
			}
		}
		return 0, fmt.Errorf("%s in %s: no metric %s", workload, dir, name)
	}
	bad := 0
	fmt.Fprintf(w, "%-16s %-12s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "B vs A", "bound")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			a, err := value(dirA, wl.Name, m.Name)
			if err != nil {
				return err
			}
			b, err := value(dirB, wl.Name, m.Name)
			if err != nil {
				return err
			}
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  OUT OF BOUND"
				bad++
			}
			fmt.Fprintf(w, "%-16s %-12s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", wl.Name, m.Name, a, b, 100*(b-a)/a, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("self-agreement failed: %d metric(s) of run B worse than run A by more than their bound", bad)
	}
	return nil
}
