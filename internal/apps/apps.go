// Package apps catalogs the bundled Phish applications — the paper's two
// toy programs (fib, nqueens), its two real ones (pfold, ray), and the
// "new applications" its future work calls for (knary, matmul) — so the
// command-line binaries can start any of them by name, the way the
// paper's users typed "ray my-scene".
package apps

import (
	"fmt"
	"sort"
	"strconv"

	"phish"
	"phish/internal/apps/fib"
	"phish/internal/apps/knary"
	"phish/internal/apps/matmul"
	"phish/internal/apps/nqueens"
	"phish/internal/apps/pfold"
	"phish/internal/apps/ray"
)

// App describes one runnable application.
type App struct {
	// Name is the program name used in job specs.
	Name string
	// Usage documents the command-line arguments.
	Usage string
	// Program returns the registered parallel program.
	Program func() *phish.Program
	// Root is the root task function name.
	Root string
	// ParseArgs converts command-line arguments to root task arguments.
	ParseArgs func(args []string) ([]phish.Value, error)
	// Render formats the job result for a terminal (images summarize
	// themselves; write them with cmd/phish's -out flag).
	Render func(v phish.Value) string
}

var catalog = map[string]App{
	"fib": {
		Name:    "fib",
		Usage:   "fib <n>                 — naive doubly-recursive Fibonacci",
		Program: fib.Program,
		Root:    fib.Root,
		ParseArgs: func(args []string) ([]phish.Value, error) {
			n, err := one(args, "fib", 30)
			if err != nil {
				return nil, err
			}
			return fib.RootArgs(n), nil
		},
		Render: func(v phish.Value) string { return fmt.Sprintf("fib = %d", v) },
	},
	"matmul": {
		Name:    "matmul",
		Usage:   "matmul <n> [seed]       — multiply two random n×n matrices (n = 32·2^k)",
		Program: matmul.Program,
		Root:    matmul.Root,
		ParseArgs: func(args []string) ([]phish.Value, error) {
			n, err := one(args, "matmul", 256)
			if err != nil {
				return nil, err
			}
			if n < 1 {
				return nil, fmt.Errorf("matmul: n must be positive, got %d", n)
			}
			for m := n; m > int64(matmul.LeafSize); m /= 2 {
				if m%2 != 0 {
					return nil, fmt.Errorf("matmul: n must halve evenly down to %d, got %d", matmul.LeafSize, n)
				}
			}
			seed := int64(1)
			if len(args) > 1 {
				s, err := strconv.ParseInt(args[1], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("matmul: bad seed %q", args[1])
				}
				seed = s
			}
			a := matmul.Random(int(n), seed)
			b := matmul.Random(int(n), seed+1)
			return matmul.RootArgs(a, b, int(n)), nil
		},
		Render: func(v phish.Value) string {
			c := v.([]float64)
			var sum float64
			for _, x := range c {
				sum += x
			}
			return fmt.Sprintf("product computed: %d entries, checksum %.0f", len(c), sum)
		},
	},
	"nqueens": {
		Name:    "nqueens",
		Usage:   "nqueens <n>             — count n-queens placements by backtrack search",
		Program: nqueens.Program,
		Root:    nqueens.Root,
		ParseArgs: func(args []string) ([]phish.Value, error) {
			n, err := one(args, "nqueens", 12)
			if err != nil {
				return nil, err
			}
			return nqueens.RootArgs(int(n)), nil
		},
		Render: func(v phish.Value) string { return fmt.Sprintf("solutions = %d", v) },
	},
	"pfold": {
		Name:    "pfold",
		Usage:   "pfold <n> [threshold]   — fold an n-monomer polymer, histogram energies",
		Program: pfold.Program,
		Root:    pfold.Root,
		ParseArgs: func(args []string) ([]phish.Value, error) {
			n, err := one(args[:min(len(args), 1)], "pfold", 16)
			if err != nil {
				return nil, err
			}
			if err := pfold.CheckN(int(n)); err != nil {
				return nil, err
			}
			threshold := 0
			if len(args) > 1 {
				t, err := strconv.Atoi(args[1])
				if err != nil {
					return nil, fmt.Errorf("pfold: bad threshold %q", args[1])
				}
				threshold = t
			}
			return pfold.RootArgs(int(n), threshold), nil
		},
		Render: func(v phish.Value) string {
			hist := v.([]int64)
			out := fmt.Sprintf("foldings = %d\nenergy histogram:", pfold.Foldings(hist))
			for e, c := range hist {
				if c != 0 {
					out += fmt.Sprintf("\n  E=%-3d %d", e, c)
				}
			}
			return out
		},
	},
	"knary": {
		Name:    "knary",
		Usage:   "knary <depth> <fan> <work> — synthetic k-ary tree with tunable grain",
		Program: knary.Program,
		Root:    knary.Root,
		ParseArgs: func(args []string) ([]phish.Value, error) {
			depth, fan, work := int64(9), int64(3), int64(256)
			parse := func(i int, dst *int64, name string) error {
				if len(args) > i {
					v, err := strconv.ParseInt(args[i], 10, 64)
					if err != nil {
						return fmt.Errorf("knary: bad %s %q", name, args[i])
					}
					*dst = v
				}
				return nil
			}
			for i, spec := range []struct {
				dst  *int64
				name string
			}{{&depth, "depth"}, {&fan, "fan"}, {&work, "work"}} {
				if err := parse(i, spec.dst, spec.name); err != nil {
					return nil, err
				}
			}
			return knary.RootArgs(depth, fan, work), nil
		},
		Render: func(v phish.Value) string { return fmt.Sprintf("nodes = %d", v) },
	},
	"ray": {
		Name:    "ray",
		Usage:   "ray <scene> [w h band]  — trace a registered scene (default, ring)",
		Program: ray.Program,
		Root:    ray.Root,
		ParseArgs: func(args []string) ([]phish.Value, error) {
			scene := "default"
			w, h, band := 320, 240, 0
			if len(args) > 0 {
				scene = args[0]
			}
			if _, err := ray.SceneByName(scene); err != nil {
				return nil, err
			}
			var err error
			if len(args) > 2 {
				if w, err = strconv.Atoi(args[1]); err != nil {
					return nil, fmt.Errorf("ray: bad width %q", args[1])
				}
				if h, err = strconv.Atoi(args[2]); err != nil {
					return nil, fmt.Errorf("ray: bad height %q", args[2])
				}
			}
			if len(args) > 3 {
				if band, err = strconv.Atoi(args[3]); err != nil {
					return nil, fmt.Errorf("ray: bad band %q", args[3])
				}
			}
			return ray.RootArgs(scene, w, h, band), nil
		},
		Render: func(v phish.Value) string {
			img := v.([]byte)
			return fmt.Sprintf("rendered image: %d bytes (use -out file.ppm to save)", len(img))
		},
	},
}

func one(args []string, app string, def int64) (int64, error) {
	if len(args) == 0 {
		return def, nil
	}
	n, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: bad argument %q", app, args[0])
	}
	return n, nil
}

// Lookup finds an application by name.
func Lookup(name string) (App, error) {
	app, ok := catalog[name]
	if !ok {
		return App{}, fmt.Errorf("apps: unknown program %q (have %v)", name, Names())
	}
	return app, nil
}

// Names lists the bundled applications.
func Names() []string {
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Usage returns the catalog's usage lines.
func Usage() string {
	var out string
	for _, n := range Names() {
		out += "  " + catalog[n].Usage + "\n"
	}
	return out
}

// RegisterAll registers every bundled program in the process-global
// program registry (worker binaries call this at startup so any job can
// be joined).
func RegisterAll() {
	for _, n := range Names() {
		phish.RegisterProgram(catalog[n].Program())
	}
}
