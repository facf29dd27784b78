package pfold

import (
	"bytes"
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"phish"
	"phish/internal/cputime"
	"phish/internal/types"
)

// sawCounts[k] is the number of self-avoiding walks of k steps on the
// square lattice (OEIS A001411); foldings of n monomers = sawCounts[n-1].
var sawCounts = []int64{1, 4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292, 324932}

func TestSerialFoldingCounts(t *testing.T) {
	for n := 1; n <= len(sawCounts); n++ {
		hist := Serial(n)
		if got, want := Foldings(hist), sawCounts[n-1]; got != want {
			t.Errorf("n=%d: foldings = %d, want %d", n, got, want)
		}
	}
}

// oracle is the walker Serial used to be: the lattice as a map from packed
// coordinate to monomer index, the chain as a slice, contacts counted by
// asking each occupied neighbour whether it is the predecessor. Slow and
// obviously right; it shares nothing with the grid but pack.
type oracle struct {
	n    int
	occ  map[pos]int32
	path []pos
	hist []int64
}

func oracleNeighbors(p pos) [4]pos {
	x, y := p.unpack()
	return [4]pos{pack(x+1, y), pack(x-1, y), pack(x, y+1), pack(x, y-1)}
}

func (w *oracle) extend(idx int32, energy int) {
	if int(idx) == w.n {
		w.hist[energy]++
		return
	}
	for _, q := range oracleNeighbors(w.path[idx-1]) {
		if _, taken := w.occ[q]; taken {
			continue
		}
		dc := 0
		for _, r := range oracleNeighbors(q) {
			if j, ok := w.occ[r]; ok && j != idx-1 {
				dc++
			}
		}
		w.occ[q] = idx
		w.path = append(w.path, q)
		w.extend(idx+1, energy+dc)
		w.path = w.path[:idx]
		delete(w.occ, q)
	}
}

func oracleSerial(n int) []int64 {
	w := &oracle{n: n, occ: map[pos]int32{pack(0, 0): 0}, path: []pos{pack(0, 0)}, hist: make([]int64, HistSize(n))}
	w.extend(1, 0)
	return w.hist
}

func TestSerialMatchesOracle(t *testing.T) {
	for n := 1; n <= 13; n++ {
		if got, want := Serial(n), oracleSerial(n); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: grid histogram %v, oracle's %v", n, got, want)
		}
	}
}

func TestSerialSmallHistograms(t *testing.T) {
	// n=1: one monomer, one folding, zero energy.
	if got := Serial(1); got[0] != 1 || Foldings(got) != 1 {
		t.Errorf("Serial(1) = %v", got)
	}
	// n=4: 36 foldings; the only contacts possible form the "U" shapes.
	// Exactly 8 foldings of 4 monomers have one contact (the U bends,
	// 2 orientations × 4 rotations), the rest have zero.
	hist := Serial(4)
	if hist[1] != 8 || hist[0] != 28 {
		t.Errorf("Serial(4) histogram = %v, want 28 zero-energy and 8 one-contact", hist[:3])
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		res, err := phish.RunLocal(Program(), Root, RootArgs(n, 3), phish.LocalOptions{Workers: 1})
		if err != nil {
			t.Fatalf("pfold(%d): %v", n, err)
		}
		got := res.Value.([]int64)
		if want := Serial(n); !reflect.DeepEqual(got, want) {
			t.Errorf("pfold(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestParallelMultiWorker(t *testing.T) {
	want := Serial(10)
	// The task tree does not depend on the schedule. Leaves checkpoint, and
	// a leaf preempted at a Yield and stolen before it resumes is executed
	// again by its adopter; every such extra execution is a checkpoint
	// resume, so executions minus resumes is the tree's size at any P.
	var tasks int64
	for _, p := range []int{1, 2, 4, 8} {
		res, err := phish.RunLocal(Program(), Root, RootArgs(10, 4), phish.LocalOptions{Workers: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if got := res.Value.([]int64); !reflect.DeepEqual(got, want) {
			t.Errorf("P=%d: histogram mismatch\n got %v\nwant %v", p, got, want)
		}
		tot := res.Totals
		got := tot.TasksExecuted - tot.CkptResumes
		if p == 1 {
			tasks = got
		} else if got != tasks {
			t.Errorf("P=%d: tasks executed − checkpoint resumes = %d − %d = %d, want %d (P=1)",
				p, tot.TasksExecuted, tot.CkptResumes, got, tasks)
		}
	}
}

func TestThresholdInvariance(t *testing.T) {
	// The grain-size knob must not change the answer.
	want := Serial(9)
	for _, th := range []int{1, 2, 5, 9, 100} {
		res, err := phish.RunLocal(Program(), Root, RootArgs(9, th), phish.LocalOptions{Workers: 3})
		if err != nil {
			t.Fatalf("threshold=%d: %v", th, err)
		}
		if got := res.Value.([]int64); !reflect.DeepEqual(got, want) {
			t.Errorf("threshold=%d: histogram mismatch", th)
		}
	}
}

func TestPackUnpack(t *testing.T) {
	for _, xy := range [][2]int{{0, 0}, {1, -1}, {-5, 7}, {100, -100}, {-511, 511}} {
		p := pack(xy[0], xy[1])
		x, y := p.unpack()
		if x != xy[0] || y != xy[1] {
			t.Errorf("pack/unpack(%v) = (%d,%d)", xy, x, y)
		}
	}
	w := newWalker(7)
	for _, xy := range [][2]int{{0, 0}, {6, -6}, {-6, 6}, {-3, 0}} {
		if got := w.pos(w.cell(xy[0], xy[1])); got != pack(xy[0], xy[1]) {
			x, y := got.unpack()
			t.Errorf("cell/pos(%v) = (%d,%d)", xy, x, y)
		}
	}
}

// panicOf runs f and returns what it panicked with, as text ("" if it
// returned).
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// straight is the packed path of k monomers in a row along +x.
func straight(k int) []int64 {
	p := make([]int64, k)
	for i := range p {
		p[i] = int64(pack(i, 0))
	}
	return p
}

// The limit is explicit at both ends, and so is a path the lattice cannot
// hold: a message that names the fault, never an index out of range and
// never a silently wrong histogram.
func TestLimitsAreExplicit(t *testing.T) {
	limit := fmt.Sprint(MaxMonomers)
	for _, n := range []int{0, -3, MaxMonomers + 1} {
		for name, f := range map[string]func(){
			"Serial":   func() { Serial(n) },
			"RootArgs": func() { RootArgs(n, 3) },
			"task":     func() { (&fakeCtx{args: phish.Args(int64(n), int64(3), int64(0), straight(1))}).run() },
		} {
			if msg := panicOf(f); !strings.Contains(msg, limit) || !strings.Contains(msg, "monomers") {
				t.Errorf("%s(%d) panicked with %q, want a message naming the limit %s", name, n, msg, limit)
			}
		}
		if err := CheckN(n); err == nil {
			t.Errorf("CheckN(%d) = nil", n)
		}
	}
	// The largest polymer there is: a full-length path is one folding.
	c := &fakeCtx{args: phish.Args(int64(MaxMonomers), int64(3), int64(0), straight(MaxMonomers))}
	c.run()
	if hist, ok := c.ret.([]int64); !ok || len(hist) != HistSize(MaxMonomers) || hist[0] != 1 || Foldings(hist) != 1 {
		t.Errorf("a full-length path of %d monomers did not return its one folding", MaxMonomers)
	}
	if got := RootArgs(MaxMonomers, 0); len(got) != 4 {
		t.Errorf("RootArgs(%d) = %v", MaxMonomers, got)
	}

	for _, bad := range []struct {
		name string
		n    int
		path []int64
		want string
	}{
		{"empty path", 5, nil, "path of 0 monomers"},
		{"path longer than n", 5, straight(6), "path of 6 monomers for a polymer of 5"},
		{"off the lattice", 5, []int64{int64(pack(5, 0))}, "off the lattice"},
		{"not an int32", 5, []int64{int64(pack(0, 0)) + 1<<32}, "off the lattice"},
		{"negative", 5, []int64{-1}, "off the lattice"},
		{"wrapped coordinate", 5, []int64{int64(pack(0, 0)), int64(pack(0, 0)) + 1<<20}, "not a lattice neighbour"},
		{"diagonal step", 5, []int64{int64(pack(0, 0)), int64(pack(1, 1))}, "not a lattice neighbour"},
		{"jump", 5, []int64{int64(pack(0, 0)), int64(pack(2, 0))}, "not a lattice neighbour"},
		{"crossing", 6, []int64{int64(pack(0, 0)), int64(pack(1, 0)), int64(pack(0, 0))}, "occupied cell"},
	} {
		c := &fakeCtx{args: phish.Args(int64(bad.n), int64(2), int64(0), bad.path)}
		if msg := panicOf(c.run); !strings.Contains(msg, bad.want) {
			t.Errorf("%s: panicked with %q, want %q", bad.name, msg, bad.want)
		}
	}
	for _, bad := range []struct {
		name  string
		n     int
		moves int64
		want  string
	}{
		{"moves of zero", 5, 0, "moves code"},
		{"moves with no leading bit", 5, 0b10, "moves code"},
		{"negative moves", 5, -1, "moves code"},
		{"moves longer than n", 3, 0b1_00_00, "path of 4 monomers for a polymer of 3"},
		{"a move back onto the path", 5, 0b1_01, "occupied cell"},
	} {
		c := &fakeCtx{args: phish.Args(int64(bad.n), int64(2), int64(0), straight(2), bad.moves)}
		if msg := panicOf(c.run); !strings.Contains(msg, bad.want) {
			t.Errorf("%s: panicked with %q, want %q", bad.name, msg, bad.want)
		}
	}
	c = &fakeCtx{args: phish.Args(int64(5), int64(2), int64(5), straight(2))}
	if msg := panicOf(c.run); !strings.Contains(msg, "energy") {
		t.Errorf("energy out of range: panicked with %q", msg)
	}
}

// fakeCtx runs one pfold task body outside any runtime: it records what
// the body returned, spawned and offered at each Yield, and vacates the
// body at its vacateAt-th Yield (never when zero).
type fakeCtx struct {
	phish.TaskCtx // the methods a pfold body never calls panic on nil
	args          []phish.Value
	ckpt          []byte
	vacateAt      int

	ret    phish.Value
	blobs  [][]byte
	merge  string
	slots  int
	kids   [][]phish.Value
	yields int
}

type fakeSucc struct{}

func (fakeSucc) Cont(slot int) types.Continuation { return types.Continuation{Slot: int32(slot)} }
func (fakeSucc) Task() types.TaskID               { return types.TaskID{} }

func (c *fakeCtx) run()                  { pfoldTask(c) }
func (c *fakeCtx) NArgs() int            { return len(c.args) }
func (c *fakeCtx) Arg(i int) phish.Value { return c.args[i] }
func (c *fakeCtx) Int(i int) int64       { return c.args[i].(int64) }
func (c *fakeCtx) Return(v phish.Value)  { c.ret = v }
func (c *fakeCtx) Checkpoint() []byte    { return c.ckpt }
func (c *fakeCtx) Successor(fn string, nslots int) phish.SuccRef {
	c.merge, c.slots = fn, nslots
	return fakeSucc{}
}
func (c *fakeCtx) Spawn(fn string, cont types.Continuation, args ...phish.Value) {
	if fn != Root || int(cont.Slot) != len(c.kids) {
		panic(fmt.Sprintf("fakeCtx: spawn of %s into slot %d", fn, cont.Slot))
	}
	c.kids = append(c.kids, append([]phish.Value(nil), args...))
}
func (c *fakeCtx) Spawn1(fn string, cont types.Continuation, a phish.Value) { c.Spawn(fn, cont, a) }
func (c *fakeCtx) Yield(blob []byte) bool {
	c.blobs = append(c.blobs, bytes.Clone(blob))
	c.yields++
	return c.yields == c.vacateAt
}

// monomers is the length of the partial folding a task's arguments lay: its
// path and its moves.
func monomers(args []phish.Value) int {
	m := len(args[3].([]int64))
	if len(args) > 4 {
		m += (bits.Len64(uint64(args[4].(int64))) - 1) / 2
	}
	return m
}

// Siblings share their path: a fan-out hands every child the same path
// slice, boxed once, and a moves code Go boxes without allocating, and each
// child's partial folding is its parent's and one step more.
func TestSiblingsShareTheirPath(t *testing.T) {
	fanouts, laid := 0, 0
	var walk func(args []phish.Value)
	walk = func(args []phish.Value) {
		c := &fakeCtx{args: args}
		c.run()
		if c.merge == "" {
			return
		}
		fanouts++
		path := c.kids[0][3].([]int64)
		if len(path) > monomers(args) {
			t.Fatalf("a child's path has %d monomers, its parent's folding %d", len(path), monomers(args))
		}
		if len(path) == monomers(args) {
			laid++ // the parent laid its moves into a path of its own
		}
		for _, kid := range c.kids {
			if p := kid[3].([]int64); &p[0] != &path[0] || len(p) != len(path) {
				t.Fatal("siblings were handed different paths")
			}
			if moves := kid[4].(int64); moves >= 256 {
				t.Fatalf("a child's moves code is %d: boxing it allocates", moves)
			}
			if monomers(kid) != monomers(args)+1 {
				t.Fatalf("a child's folding has %d monomers, its parent's %d", monomers(kid), monomers(args))
			}
			walk(kid)
		}
	}
	walk(RootArgs(12, 4))
	if fanouts == 0 || laid == 0 || laid == fanouts {
		t.Errorf("%d fan-outs, %d of them laid a path: want some, not all", fanouts, laid)
	}
}

// eachLeaf walks the task tree of pfold(n, threshold) depth first and calls
// visit with the arguments of every task that enumerates serially.
func eachLeaf(n, threshold int, visit func(args []phish.Value)) {
	var walk func(args []phish.Value)
	walk = func(args []phish.Value) {
		c := &fakeCtx{args: args}
		c.run()
		if c.merge == "" {
			if left := n - monomers(args); left > 0 {
				visit(args)
			}
			return
		}
		if len(c.kids) != c.slots {
			panic("fakeCtx: a join with an empty slot")
		}
		for _, kid := range c.kids {
			walk(kid)
		}
	}
	walk(RootArgs(n, threshold))
}

// Every leaf of pfold(10, 4), resumed from the blob it offered after each
// of its branches but the last — on the spot, or after being vacated
// there — returns the histogram it returns uninterrupted.
func TestResumeEquivalence(t *testing.T) {
	leaves, resumes := 0, 0
	eachLeaf(10, 4, func(args []phish.Value) {
		leaves++
		clean := &fakeCtx{args: args}
		clean.run()
		want := clean.ret.([]int64)
		for i, blob := range clean.blobs {
			resumes++
			r := &fakeCtx{args: args, ckpt: blob}
			r.run()
			if !reflect.DeepEqual(r.ret, clean.ret) {
				t.Fatalf("leaf %v resumed after branch %d of %d returned %v, uninterrupted %v",
					args[3], i+1, len(clean.blobs), r.ret, want)
			}
			if got, want := len(r.blobs), len(clean.blobs)-i-1; got != want {
				t.Fatalf("leaf %v resumed after branch %d offered %d more blobs, want %d", args[3], i+1, got, want)
			}
			v := &fakeCtx{args: args, vacateAt: i + 1}
			v.run()
			if v.ret != nil || !bytes.Equal(v.blobs[i], blob) {
				t.Fatalf("leaf %v vacated at Yield %d returned %v with blob %x, want nothing and %x",
					args[3], i+1, v.ret, v.blobs[i], blob)
			}
		}
	})
	// A leaf per walk of 5 steps (6 monomers placed), a branch per walk of
	// 6, a blob per branch but each leaf's last. (No walk of 5 steps is
	// trapped: every leaf has a branch.)
	if want := sawCounts[6] - sawCounts[5]; int64(leaves) != sawCounts[5] || int64(resumes) != want {
		t.Errorf("%d leaves and %d resumes, want %d and %d", leaves, resumes, sawCounts[5], want)
	}
}

// fuzzLeaf is a leaf with three branches, so two blobs: five monomers in a
// row, four to place.
func fuzzLeaf() []phish.Value {
	return phish.Args(int64(9), int64(4), int64(0), straight(5))
}

// A leaf handed a blob that is not one of its own — foreign, truncated,
// oversize — starts clean: it never panics and never returns anything but
// the uninterrupted histogram. A blob of a leaf's own size and a branch
// count in range is taken at its word: the leaf adds the branches after
// that count to the histogram in the blob.
func FuzzResumeHist(f *testing.F) {
	clean := &fakeCtx{args: fuzzLeaf()}
	clean.run()
	want := clean.ret.([]int64)
	zero := make([]int64, len(want))
	own := clean.blobs[0]
	f.Add([]byte(nil))
	f.Add(own)
	f.Add(own[:len(own)-1])
	f.Add(own[:1])
	f.Add(append(bytes.Clone(own), 0))
	f.Add(append([]byte{0}, own[1:]...))
	f.Add(append([]byte{5}, own[1:]...))
	f.Add(bytes.Repeat([]byte{0xff}, len(own)))
	f.Add(make([]byte, 1<<16+1))
	f.Fuzz(func(t *testing.T, blob []byte) {
		c := &fakeCtx{args: fuzzLeaf(), ckpt: blob}
		c.run()
		got := c.ret.([]int64)
		if len(blob) == len(own) && blob[0] >= 1 && blob[0] <= 4 {
			// Its own format: what it added is what the branches after
			// blob[0] add to an empty histogram.
			in := make([]int64, len(want))
			resumeHist(blob, in)
			var rest []int64
			if done := int(blob[0]); done <= len(clean.blobs) {
				rest = make([]int64, len(want))
				resumeHist(clean.blobs[done-1], rest)
			} else {
				rest = want // every branch was in the blob: nothing is added
			}
			for i := range got {
				if got[i]-in[i] != want[i]-rest[i] {
					t.Fatalf("resumed after branch %d: slot %d grew by %d, want %d", blob[0], i, got[i]-in[i], want[i]-rest[i])
				}
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a %d-byte foreign blob changed the answer: %v, want %v (clean start %v)", len(blob), got, want, zero)
		}
	})
}

// drainWalkers empties the pool and reports the first walker in it whose
// grid is not all-zero.
func drainWalkers() (n int, err error) {
	for {
		w, _ := walkers.Get().(*walker)
		if w == nil {
			return n, err
		}
		n++
		for q, b := range w.grid {
			if b != 0 && err == nil {
				err = fmt.Errorf("pooled walker %d: cell %d of its grid holds %d", n, q, b)
			}
		}
	}
}

// A walker comes back from a task with its grid all-zero, however the task
// ended: fan-out, dead end, leaf run to the end, leaf vacated at a Yield,
// leaf resumed from a blob.
func TestPooledWalkersComeBackClean(t *testing.T) {
	// One processor, no collection: every walker the tasks below return is
	// one the drain at the end can reach.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	drainWalkers()

	res, err := phish.RunLocal(Program(), Root, RootArgs(12, 4), phish.LocalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.TasksExecuted < 1000 {
		t.Fatalf("only %d tasks executed", res.Totals.TasksExecuted)
	}
	if !reflect.DeepEqual(res.Value, Serial(12)) {
		t.Fatal("wrong histogram")
	}
	eachLeaf(8, 3, func(args []phish.Value) {
		(&fakeCtx{args: args, vacateAt: 1}).run()
		clean := &fakeCtx{args: args}
		clean.run()
		for _, blob := range clean.blobs {
			(&fakeCtx{args: args, ckpt: blob}).run()
		}
	})
	n, err := drainWalkers()
	if err != nil {
		t.Error(err)
	}
	if n == 0 && !raceEnabled { // under the race detector a sync.Pool drops one Put in four
		t.Error("no walker in the pool after a thousand tasks: nothing was checked")
	}

	// And the check sees a dirty one.
	w := newWalker(5)
	w.grid[w.cell(1, 1)] = 1
	walkers.Put(w)
	if _, err := drainWalkers(); err == nil {
		t.Error("a walker returned with a monomer on its grid went unnoticed")
	}
}

// Table 2's structural counts come from the tree, which the kernel must not
// have moved: tasks = fan-outs + merges + leaves, synchronizations = one
// per child.
func TestTaskTreeShape(t *testing.T) {
	res, err := phish.RunLocal(Program(), Root, RootArgs(12, 4), phish.LocalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Totals.TasksExecuted, int64(4606); got != want {
		t.Errorf("pfold(12, 4): %d tasks executed, want %d", got, want)
	}
	if got, want := res.Totals.Synchronizations, int64(3388); got != want {
		t.Errorf("pfold(12, 4): %d synchronizations, want %d", got, want)
	}
}

// A task builds no world of its own, nor a histogram: a leaf takes one a
// merge put back, and a merge returns the one it summed into. What pfold
// still allocates is the path a fan-out at every fourth level of the tree
// lays for its children, its box, and the histograms the pool has not yet
// filled with. On two workers results cross the fabric and steals copy the
// stolen tasks' paths, and those are counted too. A count, so it repeats:
// 0.06 allocations and 4–5 bytes per task on one worker here; 1.52 and 197
// when every leaf and merge made a histogram of its own; 3.68 and 316 when
// every child got a path, a box and an argument list of its own; 13.95 and
// 1.7 KB when every task made a map, a path, a histogram and a blob per
// branch.
func TestTaskBuildsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, workers := range []int{1, 2} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := phish.RunLocal(Program(), Root, RootArgs(14, 4), phish.LocalOptions{Workers: workers})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Value, Serial(14)) {
			t.Fatalf("P=%d: wrong histogram", workers)
		}
		tasks := float64(res.Totals.TasksExecuted)
		mallocs := float64(m1.Mallocs-m0.Mallocs) / tasks
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / tasks
		t.Logf("P=%d: %.0f tasks, %.3f allocations and %.1f bytes per task", workers, tasks, mallocs, bytes)
		if mallocs > 0.2 {
			t.Errorf("P=%d: %.2f allocations per task over pfold(14, 4), want at most 0.2", workers, mallocs)
		}
		if bytes > 24 {
			t.Errorf("P=%d: %.0f bytes allocated per task over pfold(14, 4), want at most 24", workers, bytes)
		}
	}
}

// The honest form of "speedup", in the paper's own currency: execution time
// of pfold(17, 6) on one worker — 95 134 tasks, their closures, joins and
// checkpoints — over the serial code's, both as CPU time of the thread that
// did the work. What holds the two mechanisms behind it in place is counted,
// not timed (TestTaskBuildsNothing here, TestYieldQuietPathIsFree in core);
// this is the backstop. On the 2-vCPU box it was written on, the thread CPU
// time of identical work moves by a factor of 1.6 within a minute, pairs run
// back to back read 1.2 to 1.6, most of them 1.35 to 1.5, and the best of
// twelve 1.16 to 1.31. So the test runs up to twelve pairs and passes at the
// first that reads 1.5 or less: the verdict of "the best of twelve is at
// most 1.5", without timing the rest. A task that builds its own lattice
// again (2 and more) cannot meet it.
func TestOneWorkerWithinSerial(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a timing gate")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if _, ok := cputime.Thread(); !ok {
		t.Skip("no per-thread CPU clock on this platform")
	}
	const bound, rounds = 1.5, 12
	best := 1e9 // the lowest ratio so far; after a pass, the passing pair's
	for round := 1; round <= rounds && best > bound; round++ {
		c0, _ := cputime.Thread()
		Serial(17)
		c1, _ := cputime.Thread()
		res, err := phish.RunLocal(Program(), Root, RootArgs(17, 6), phish.LocalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		serial, p1 := c1-c0, res.Workers[0].ExecTime
		ratio := float64(p1) / float64(serial)
		t.Logf("pair %d: Serial(17) %v, pfold(17, 6) on one worker %v: T(P=1)/T(Serial) = %.2f", round, serial, p1, ratio)
		best = min(best, ratio)
	}
	if best > bound {
		t.Errorf("pfold(17, 6) on one worker takes %.2f × Serial(17) in the best of %d pairs, want at most %.1f", best, rounds, bound)
	}
}

func BenchmarkSerial17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := Foldings(Serial(17)); got != 17245332 {
			b.Fatalf("foldings = %d", got)
		}
	}
}

// BenchmarkLeaf is one task leaf of pfold(17, 6) outside the runtime: pool,
// prefix, three branches of six monomers, three blobs.
func BenchmarkLeaf(b *testing.B) {
	c := &fakeCtx{args: phish.Args(int64(17), int64(6), int64(0), straight(11))}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.blobs, c.yields = c.blobs[:0], 0
		c.run()
	}
}
