package core

import (
	"fmt"
	"sync"
	"unsafe"

	"phish/internal/model"
)

// TaskFunc is the body of a task. It runs to completion without blocking:
// it reads its arguments from the context and either returns a value to
// its continuation (ctx.Return) or spawns children plus a successor task
// that will combine their results (the continuation-passing-threads style
// of the paper's programming model). It is an alias for model.Func so the
// same program runs on both the Phish and Strata runtimes.
type TaskFunc = model.Func

// Program is a named parallel application: its set of task functions. All
// worker processes of a job run the same program, so a task can be shipped
// between workers as a function name plus arguments. It is safe for
// concurrent use; registration happens at startup and each FnTable looks a
// name up once, so lookups take a read lock only.
type Program struct {
	// Name identifies the program in JobSpecs.
	Name string

	mu  sync.RWMutex
	fns map[string]TaskFunc
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name, fns: make(map[string]TaskFunc)}
}

// Register binds a task function name within the program. An empty or
// duplicate name panics: it would make task routing ambiguous between
// workers, and it is always detectable at startup.
func (p *Program) Register(name string, fn TaskFunc) {
	if name == "" {
		panic("core: empty task function name")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.fns[name]; dup {
		panic(fmt.Sprintf("core: duplicate task function %q", name))
	}
	p.fns[name] = fn
}

// Lookup returns the task function bound to name.
func (p *Program) Lookup(name string) (TaskFunc, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	fn, ok := p.fns[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown task function %q", name)
	}
	return fn, nil
}

// fnMemoBits sizes an FnTable's memo: 8 sets of two slots, more than the
// handful of Fns a program keeps on its hot path.
const (
	fnMemoBits = 3
	fnMemoSets = 1 << fnMemoBits
)

// FnTable resolves task-function names for one scheduler goroutine — a
// Phish worker's or a Strata processor's. A task carries its Fn by name,
// because a name is what crosses the wire, so every execution resolves one:
// this is on the per-task path.
//
// A memo sits in front of the map. It is keyed by the identity of the
// name's bytes, not by their contents: a slot holds a string's data
// pointer, its length and its entry, and a hit needs both to be equal. Go
// strings are immutable, so an equal pointer and length mean equal
// contents, and a hit is always right without a byte hashed or compared.
// Application code names Fns with constants and the wire interns the names
// it decodes, so in steady state each Fn's name has one backing array and
// every resolution after the first is a hit. A name with a fresh backing
// array (an intern generation rotated away) costs one map lookup, never a
// wrong answer. A name's set is fixed by where the linker put its bytes, so
// each set has two slots: two hot names that hash alike — one build in
// sixteen, for a program with two — both stay, rather than evicting each
// other on every task.
//
// A closure carries only its name, never a table index, so a closure that
// was stolen, migrated or recycled is resolved afresh in the table of
// whoever runs it. Not safe for concurrent use.
type FnTable struct {
	prog   *Program
	byName map[string]*fnEntry
	memo   [fnMemoSets][2]fnMemo
	// misses counts the resolutions the memo could not answer.
	misses int64
}

type fnMemo struct {
	data *byte
	n    int
	e    *fnEntry
}

// NewFnTable returns an empty table over prog's functions.
func NewFnTable(prog *Program) FnTable {
	t := FnTable{prog: prog, byName: make(map[string]*fnEntry)}
	for i := range t.memo {
		t.memo[i][0].n, t.memo[i][1].n = -1, -1 // no name's length: an unfilled slot never hits
	}
	return t
}

// Func returns the task function bound to name. An unknown name panics:
// the job's processors run different programs, which is unrecoverable.
func (t *FnTable) Func(name string) TaskFunc { return t.entry(name).fn }

// entry returns name's entry, resolving it in the program the first time
// the table meets the name.
func (t *FnTable) entry(name string) *fnEntry {
	set := &t.memo[fnMemoIndex(name)]
	p := unsafe.StringData(name)
	if set[0].data == p && set[0].n == len(name) {
		return set[0].e
	}
	if set[1].data == p && set[1].n == len(name) {
		return set[1].e
	}
	return t.resolve(name, set)
}

// resolve is entry's miss path: the map, the program on first sight, and
// the name put first in its set, the set's first name moved second.
func (t *FnTable) resolve(name string, set *[2]fnMemo) *fnEntry {
	t.misses++
	e, ok := t.byName[name]
	if !ok {
		fn, err := t.prog.Lookup(name)
		if err != nil {
			panic(err)
		}
		e = &fnEntry{fn: fn}
		t.byName[name] = e
	}
	set[1] = set[0]
	set[0] = fnMemo{data: unsafe.StringData(name), n: len(name), e: e}
	return e
}

// fnMemoIndex picks name's memo set from its data pointer and length
// (Fibonacci hashing: the top bits of a multiplicative hash).
func fnMemoIndex(name string) uint64 {
	return ((uint64(uintptr(unsafe.Pointer(unsafe.StringData(name)))) ^ uint64(len(name))) * 0x9e3779b97f4a7c15) >> (64 - fnMemoBits)
}

// programs is the process-global program registry; worker processes look
// up the program named in a JobSpec here.
var (
	programsMu sync.RWMutex
	programs   = make(map[string]*Program)
)

// RegisterProgram makes p joinable by name in this process. Registering
// the same name twice panics unless it is the identical *Program (apps
// register from init-like helpers that may run more than once in tests).
func RegisterProgram(p *Program) {
	programsMu.Lock()
	defer programsMu.Unlock()
	if prev, ok := programs[p.Name]; ok {
		if prev == p {
			return
		}
		panic(fmt.Sprintf("core: conflicting registration of program %q", p.Name))
	}
	programs[p.Name] = p
}

// LookupProgram finds a registered program.
func LookupProgram(name string) (*Program, error) {
	programsMu.RLock()
	defer programsMu.RUnlock()
	p, ok := programs[name]
	if !ok {
		return nil, fmt.Errorf("core: program %q not registered in this process", name)
	}
	return p, nil
}
