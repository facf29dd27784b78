// Package pfold is the paper's flagship real application: protein folding
// on a lattice. It enumerates every folding of an n-monomer polymer into
// the two-dimensional square lattice — every self-avoiding walk of n−1
// steps — and computes a histogram of the energy values, where the energy
// of a folding is its number of topological contacts: pairs of monomers
// that are adjacent on the lattice but not adjacent along the chain.
//
// The original was developed by Chris Joerg (MIT LCS) and Vijay Pande
// (MIT CMSE); this reconstruction follows the published description. It is
// the workload behind the paper's Figure 4 (execution time), Figure 5
// (speedup), and Table 2 (scheduling statistics).
//
// The lattice is a flat byte grid, one byte per cell (1 = occupied), of
// side 2n+1 with the first monomer at the centre: a chain of n monomers
// reaches at most n−1 cells from it and looks one cell further, so no index
// ever leaves the grid. A cell's four neighbours are four index deltas, and
// the contacts a new monomer makes are the sum of its four neighbour bytes
// less one — the chain predecessor is always among them. One recursion
// (walker.branch) over that grid serves Serial and the parallel program's
// leaves alike, so "time against the best serial code" compares a schedule
// with the work it schedules and nothing else.
//
// The search tree is explored in parallel: a task extends a partial
// folding by one monomer per feasible lattice cell, spawning a child per
// extension and a merge successor that sums the children's histograms.
// When the number of remaining monomers drops to the serial threshold the
// task enumerates the rest of its subtree inline — the grain-size knob. A
// task builds no world of its own: it borrows a walker from a pool, lays
// its prefix on the grid, runs, and lifts the prefix again, which hands the
// grid back all-zero without clearing it. Nor does it build a histogram: a
// task owns the values in its argument slots (phish.TaskCtx.Arg), so a merge
// sums into its first histogram, returns that one, and puts the others in
// a pool the leaves take theirs from.
package pfold

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"phish"
)

// DefaultThreshold is the remaining-monomer count below which a task
// switches to serial enumeration.
const DefaultThreshold = 6

// MaxMonomers is the longest polymer the package folds. A task's path
// argument packs each lattice coordinate into ten bits (see pack), which
// hold ±511, and an n-monomer chain reaches n−1 cells from its first
// monomer; one past this limit the packed coordinates would wrap and two
// different cells would read as one.
const MaxMonomers = 512

// CheckN reports whether an n-monomer polymer is one the package folds.
func CheckN(n int) error {
	if n < 1 || n > MaxMonomers {
		return fmt.Errorf("pfold: %d monomers: want 1 to %d (a path coordinate is packed into ten bits, ±%d)",
			n, MaxMonomers, MaxMonomers-1)
	}
	return nil
}

// pos packs a lattice coordinate as it travels in a task's path argument;
// the first monomer sits at (0, 0).
type pos int32

func pack(x, y int) pos          { return pos((x+512)<<10 | (y + 512)) }
func (p pos) unpack() (x, y int) { return int(p)>>10 - 512, int(p)&1023 - 512 }

// HistSize returns the histogram length used for an n-monomer polymer:
// energies range over [0, maxContacts] and a monomer on the square
// lattice has at most 4 neighbors, 2 of which are chain bonds in the
// interior, so n+1 slots are comfortably enough; we keep the loose bound
// 2n+1 to make the invariant obvious.
func HistSize(n int) int { return 2*n + 1 }

// walker enumerates completions of a partial folding on its grid. Between
// uses (see walkers) the grid is all-zero.
type walker struct {
	n      int
	stride int     // grid side, 2n+1
	grid   []uint8 // stride×stride cells, 1 = occupied
	d      [4]int  // neighbour deltas in branch order: +x, −x, +y, −y
	hist   []int64
	// Scratch of a task: the cells its path occupies, the checkpoint blob a
	// leaf offers at every Yield and the argument list a fan-out spawns its
	// children with (the runtime copies both).
	cells []int
	blob  []byte
	args  []phish.Value
}

func newWalker(n int) *walker {
	s := 2*n + 1
	return &walker{n: n, stride: s, grid: make([]uint8, s*s), d: [4]int{1, -1, s, -s}}
}

// cell is the grid index of lattice coordinate (x, y).
func (w *walker) cell(x, y int) int { return (y+w.n)*w.stride + x + w.n }

// pos is the packed lattice coordinate of grid index q.
func (w *walker) pos(q int) pos { return pack(q%w.stride-w.n, q/w.stride-w.n) }

// contacts counts the contacts a monomer placed at free cell q makes: its
// occupied neighbours other than the chain predecessor, which is always one
// of the four.
func (w *walker) contacts(q int) int {
	g, s := w.grid, w.stride
	return int(g[q+1]+g[q-1]+g[q+s]+g[q-s]) - 1
}

// branch puts the next monomer at free cell q and counts every completion
// of the folding into hist; left is the number of monomers still to place,
// this one included, and energy the contacts made so far. The grid is left
// as it was found.
func (w *walker) branch(q, left, energy int) {
	energy += w.contacts(q)
	if left == 1 {
		w.hist[energy]++
		return
	}
	w.grid[q] = 1
	w.extend(q, left-1, energy)
	w.grid[q] = 0
}

// extend is branch for every free neighbour of the occupied cell at, with
// the last monomer's placement folded into the loop.
func (w *walker) extend(at, left, energy int) {
	g, s := w.grid, w.stride
	for _, d := range w.d {
		q := at + d
		if g[q] != 0 {
			continue
		}
		e := energy + int(g[q+1]+g[q-1]+g[q+s]+g[q-s]) - 1 // contacts(q), on the locals
		if left == 1 {
			w.hist[e]++
			continue
		}
		g[q] = 1
		w.extend(q, left-1, e)
		g[q] = 0
	}
}

// Serial is the best serial implementation we have — the grid recursion the
// parallel program's leaves run, with no task around it: enumerate all
// foldings of an n-monomer polymer and return the energy histogram. It
// panics unless 1 ≤ n ≤ MaxMonomers.
func Serial(n int) []int64 {
	if err := CheckN(n); err != nil {
		panic(err.Error())
	}
	w := newWalker(n)
	w.hist = make([]int64, HistSize(n))
	if n == 1 {
		w.hist[0] = 1
		return w.hist
	}
	origin := w.cell(0, 0)
	w.grid[origin] = 1
	for _, d := range w.d {
		w.branch(origin+d, n-1, 0)
	}
	return w.hist
}

// Foldings returns the total number of foldings of an n-monomer polymer
// (the number of self-avoiding walks of n−1 steps, OEIS A001411).
func Foldings(hist []int64) int64 {
	var total int64
	for _, h := range hist {
		total += h
	}
	return total
}

// walkers recycles walkers between tasks (a sync.Pool: one free list per
// processor, so a worker gets back the walker it just returned). A walker
// goes back only through release, with its grid all-zero.
var walkers sync.Pool

// acquire borrows a walker for an n-monomer polymer and lays the partial
// folding on its grid: the packed path, then the moves (see pfoldTask) from
// its last monomer. w.cells then holds the monomers' cells in chain order.
// It panics, naming the fault, on a folding that is empty, longer than n,
// does not start at (0, 0), takes a step that is not to a lattice
// neighbour, or crosses itself, and on a moves code that is not one; a
// folding that passes stays on the grid, n−1 steps from its centre at most.
// A task that panics keeps its walker out of the pool.
func acquire(n int, packed []int64, moves int64) *walker {
	nmoves := (bits.Len64(uint64(moves)) - 1) / 2
	if moves < 1 || bits.Len64(uint64(moves))%2 == 0 {
		panic(fmt.Sprintf("pfold: moves code %#b: want a 1 bit and two bits a move after it", moves))
	}
	if len(packed) < 1 || len(packed)+nmoves > n {
		panic(fmt.Sprintf("pfold: path of %d monomers for a polymer of %d", len(packed)+nmoves, n))
	}
	if packed[0] != int64(pack(0, 0)) {
		panic(fmt.Sprintf("pfold: path starts at packed position %d, off the lattice: the first monomer sits at (0, 0)", packed[0]))
	}
	w, _ := walkers.Get().(*walker)
	if w == nil || w.n != n {
		w = newWalker(n)
	}
	q := w.cell(0, 0)
	w.grid[q] = 1
	w.cells = append(w.cells[:0], q)
	for i := 1; i < len(packed); i++ {
		// A step along x moves the packed position by 1<<10, one along y by 1.
		switch packed[i] - packed[i-1] {
		case 1 << 10:
			q += w.d[0]
		case -1 << 10:
			q += w.d[1]
		case 1:
			q += w.d[2]
		case -1:
			q += w.d[3]
		default:
			panic(fmt.Sprintf("pfold: path monomer %d (packed position %d) is not a lattice neighbour of monomer %d (%d)",
				i, packed[i], i-1, packed[i-1]))
		}
		w.lay(q)
	}
	for i := nmoves - 1; i >= 0; i-- {
		q += w.d[moves>>(2*i)&3]
		w.lay(q)
	}
	return w
}

// lay puts the next monomer of a partial folding at cell q.
func (w *walker) lay(q int) {
	if w.grid[q] != 0 {
		x, y := w.pos(q).unpack()
		panic(fmt.Sprintf("pfold: monomer %d at (%d, %d) lands on an occupied cell", len(w.cells), x, y))
	}
	w.grid[q] = 1
	w.cells = append(w.cells, q)
}

// release lifts the prefix acquire laid and returns the walker to the pool.
func (w *walker) release() {
	for _, q := range w.cells {
		w.grid[q] = 0
	}
	w.hist = nil // returned, or back in hists
	walkers.Put(w)
}

// hists recycles histograms, boxed: each holds a []int64 as a phish.Value,
// so a task that returns one, or a merge that puts one back, boxes nothing.
// A merge puts back every histogram but the one it sums into; leaves and
// dead ends take theirs from here, and a leaf vacated at a Yield puts its
// own back.
var hists sync.Pool

// newHist returns an all-zero histogram for an n-monomer polymer, boxed
// and unboxed.
func newHist(n int) (phish.Value, []int64) {
	if box := hists.Get(); box != nil {
		if h := box.([]int64); len(h) == HistSize(n) {
			clear(h)
			return box, h
		}
	}
	h := make([]int64, HistSize(n))
	return h, h
}

// Task arguments: n, threshold, energy-so-far, path (packed positions) and,
// for every task but the root, moves: the steps (0–3 in branch order: +x,
// −x, +y, −y) that extend the path to the task's partial folding, two bits
// each under a leading 1 bit. A fan-out passes its children its own path
// and its moves with the child's step appended, so siblings share one path,
// boxed once, and one argument list, the walker's. Once three steps have
// piled up the fan-out lays them into a path of its own instead: a code of
// up to three steps is under 256, an integer Go boxes without allocating.
func pfoldTask(c phish.TaskCtx) {
	n := int(c.Int(0))
	threshold := int(c.Int(1))
	energy := int(c.Int(2))
	packed := c.Arg(3).([]int64)
	moves := int64(1) // no step: the root's path is its whole folding
	if c.NArgs() > 4 {
		moves = c.Int(4)
	}
	if err := CheckN(n); err != nil {
		panic(err.Error())
	}
	if energy < 0 || energy >= n {
		panic(fmt.Sprintf("pfold: energy %d so far for a polymer of %d", energy, n))
	}
	w := acquire(n, packed, moves)
	left := n - len(w.cells)
	if left == 0 {
		w.release()
		box, hist := newHist(n)
		hist[energy]++
		c.Return(box)
		return
	}
	// The feasible placements of the next monomer, in branch order, and
	// the direction of each.
	var free, dirs [4]int
	nfree := 0
	for i, d := range w.d {
		if q := w.cells[len(w.cells)-1] + d; w.grid[q] == 0 {
			free[nfree], dirs[nfree] = q, i
			nfree++
		}
	}

	if left <= threshold {
		// Small remainder: enumerate serially inside this task, one
		// first-level branch subtree at a time, checkpointing the partial
		// histogram between branches so a preempted or redone leaf skips
		// the subtrees it already summed. After the last branch there is
		// nothing left to skip: the leaf returns without another Yield.
		box, hist := newHist(n)
		done := resumeHist(c.Checkpoint(), hist)
		w.hist = hist
		for i, q := range free[:nfree] {
			if i < done {
				continue
			}
			w.branch(q, left, energy)
			if i+1 < nfree && c.Yield(w.packHist(i+1)) {
				w.release()
				hists.Put(box) // the blob holds what it counted
				return
			}
		}
		w.release()
		c.Return(box)
		return
	}

	// Fan out: one child per feasible placement.
	if nfree == 0 {
		w.release()
		box, _ := newHist(n)
		c.Return(box) // dead end: contributes nothing
		return
	}
	path := c.Arg(3)
	if moves >= 1<<6 { // three moves: a fourth would take the code past 255
		own := make([]int64, len(w.cells))
		for i, q := range w.cells {
			own[i] = int64(w.pos(q))
		}
		path, moves = own, 1
	}
	s := c.Successor("pfold.merge", nfree)
	args := append(w.args[:0], c.Arg(0), c.Arg(1), nil, path, nil)
	for slot, q := range free[:nfree] {
		args[2], args[4] = int64(energy+w.contacts(q)), moves<<2|int64(dirs[slot])
		c.Spawn("pfold", s.Cont(slot), args...)
	}
	clear(args)
	w.args = args
	w.release()
}

// packHist encodes a serial leaf's checkpoint into the walker's blob
// buffer: the count of first-level branches already summed, then the
// partial histogram.
func (w *walker) packHist(done int) []byte {
	if len(w.blob) != 1+8*len(w.hist) {
		w.blob = make([]byte, 1+8*len(w.hist))
	}
	w.blob[0] = byte(done)
	for i, v := range w.hist {
		binary.BigEndian.PutUint64(w.blob[1+8*i:], uint64(v))
	}
	return w.blob
}

// resumeHist decodes a leaf checkpoint into hist, returning the completed
// branch count. A lattice cell has at most 4 neighbors, so a count outside
// [1, 4] — like any size mismatch — means a foreign blob; restart clean.
func resumeHist(ck []byte, hist []int64) int {
	if len(ck) != 1+8*len(hist) || ck[0] == 0 || ck[0] > 4 {
		return 0
	}
	for i := range hist {
		hist[i] = int64(binary.BigEndian.Uint64(ck[1+8*i:]))
	}
	return int(ck[0])
}

// mergeTask sums its children's histograms into the first, which it owns
// (phish.TaskCtx.Arg), returns that same boxed value and puts the others
// back in hists.
func mergeTask(c phish.TaskCtx) {
	box := c.Arg(0)
	sum := box.([]int64)
	for i := 1; i < c.NArgs(); i++ {
		arg := c.Arg(i)
		h := arg.([]int64)
		if len(h) != len(sum) {
			panic(fmt.Sprintf("pfold: histogram length mismatch %d vs %d", len(h), len(sum)))
		}
		for j, v := range h {
			sum[j] += v
		}
		hists.Put(arg)
	}
	c.Return(box)
}

var (
	once sync.Once
	prog *phish.Program
)

// Program returns the pfold parallel program.
func Program() *phish.Program {
	once.Do(func() {
		prog = phish.NewProgram("pfold")
		prog.Register("pfold", pfoldTask)
		prog.Register("pfold.merge", mergeTask)
	})
	return prog
}

// Root names the program's root task function.
const Root = "pfold"

// RootArgs builds the root argument list for an n-monomer polymer with
// the given serial threshold (DefaultThreshold when threshold <= 0). It
// panics unless 1 ≤ n ≤ MaxMonomers.
func RootArgs(n, threshold int) []phish.Value {
	if err := CheckN(n); err != nil {
		panic(err.Error())
	}
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return phish.Args(int64(n), int64(threshold), int64(0), []int64{int64(pack(0, 0))})
}
