package core_test

import (
	"sync"
	"testing"

	"phish/internal/core"
	"phish/internal/model"
)

func TestProgramRegisterLookup(t *testing.T) {
	p := core.NewProgram("lookup")
	ran := ""
	p.Register("one", func(model.Ctx) { ran = "one" })
	p.Register("two", func(model.Ctx) { ran = "two" })
	fn, err := p.Lookup("two")
	if err != nil {
		t.Fatal(err)
	}
	if fn(nil); ran != "two" {
		t.Errorf("Lookup(two) ran %q", ran)
	}
	if _, err := p.Lookup("three"); err == nil {
		t.Error("unknown name did not error")
	}
}

func TestProgramDuplicatePanics(t *testing.T) {
	p := core.NewProgram("dup")
	p.Register("x", func(model.Ctx) {})
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	p.Register("x", func(model.Ctx) {})
}

func TestProgramEmptyNamePanics(t *testing.T) {
	p := core.NewProgram("empty")
	defer func() {
		if recover() == nil {
			t.Error("empty name did not panic")
		}
	}()
	p.Register("", func(model.Ctx) {})
}

func TestFnTableUnknownNamePanics(t *testing.T) {
	p := core.NewProgram("unknown")
	p.Register("k", func(model.Ctx) {})
	tab := core.NewFnTable(p)
	defer func() {
		if recover() == nil {
			t.Error("resolving an unknown name did not panic")
		}
	}()
	tab.Func("nope")
}

func TestProgramConcurrentLookups(t *testing.T) {
	p := core.NewProgram("concurrent")
	p.Register("k", func(model.Ctx) {})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if fn, err := p.Lookup("k"); err != nil || fn == nil {
					panic("lookup of a registered name failed")
				}
			}
		}()
	}
	wg.Wait()
}
