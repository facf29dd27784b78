package deque

import (
	"container/list"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLIFOHead(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 10; i++ {
		d.PushHead(i)
	}
	for i := 9; i >= 0; i-- {
		v, ok := d.PopHead()
		if !ok || v != i {
			t.Fatalf("PopHead = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := d.PopHead(); ok {
		t.Fatal("pop from empty deque succeeded")
	}
}

func TestFIFOTailSteal(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 10; i++ {
		d.PushHead(i) // i=0 pushed first, so it sits at the tail
	}
	for i := 0; i < 10; i++ {
		v, ok := d.PopTail()
		if !ok || v != i {
			t.Fatalf("PopTail = %d,%v want %d (oldest first)", v, ok, i)
		}
	}
}

func TestFigure1Scenario(t *testing.T) {
	// Figure 1 of the paper: queue [D C B A] (head=D, tail=A); the worker
	// executes D, which spawns E, F, G at the head; then a thief steals A
	// from the tail.
	var d Deque[string]
	for _, s := range []string{"A", "B", "C", "D"} {
		d.PushHead(s)
	}
	v, _ := d.PopHead()
	if v != "D" {
		t.Fatalf("executed %q, want D", v)
	}
	for _, s := range []string{"G", "F", "E"} {
		d.PushHead(s)
	}
	stolen, _ := d.PopTail()
	if stolen != "A" {
		t.Fatalf("thief stole %q, want A", stolen)
	}
	var rest []string
	for {
		v, ok := d.PopHead()
		if !ok {
			break
		}
		rest = append(rest, v)
	}
	want := []string{"E", "F", "G", "C", "B"}
	for i := range want {
		if rest[i] != want[i] {
			t.Fatalf("remaining order %v, want %v", rest, want)
		}
	}
}

func TestGrowthAndWraparound(t *testing.T) {
	var d Deque[int]
	// Exercise wraparound: interleave pushes/pops so head circles.
	for round := 0; round < 5; round++ {
		for i := 0; i < 100; i++ {
			d.PushHead(i)
			d.PushTail(-i)
		}
		for i := 0; i < 100; i++ {
			if _, ok := d.PopHead(); !ok {
				t.Fatal("unexpected empty")
			}
			if _, ok := d.PopTail(); !ok {
				t.Fatal("unexpected empty")
			}
		}
		if !d.Empty() {
			t.Fatalf("round %d: deque not empty: %d", round, d.Len())
		}
	}
}

func TestDrainAndSnapshot(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 5; i++ {
		d.PushTail(i)
	}
	snap := d.Snapshot()
	if len(snap) != 5 || d.Len() != 5 {
		t.Fatalf("snapshot %v altered deque (len %d)", snap, d.Len())
	}
	got := d.Drain()
	for i := range got {
		if got[i] != i || snap[i] != i {
			t.Fatalf("drain %v snapshot %v", got, snap)
		}
	}
	if !d.Empty() {
		t.Fatal("drain left elements")
	}
}

// TestQuickAgainstList drives the deque with random operation sequences
// and checks every observation against container/list as the oracle.
func TestQuickAgainstList(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var d Deque[int]
		oracle := list.New()
		next := 0
		for _, op := range ops {
			switch op % 4 {
			case 0:
				d.PushHead(next)
				oracle.PushFront(next)
				next++
			case 1:
				d.PushTail(next)
				oracle.PushBack(next)
				next++
			case 2:
				v, ok := d.PopHead()
				if oracle.Len() == 0 {
					if ok {
						return false
					}
					continue
				}
				e := oracle.Front()
				oracle.Remove(e)
				if !ok || v != e.Value.(int) {
					return false
				}
			case 3:
				v, ok := d.PopTail()
				if oracle.Len() == 0 {
					if ok {
						return false
					}
					continue
				}
				e := oracle.Back()
				oracle.Remove(e)
				if !ok || v != e.Value.(int) {
					return false
				}
			}
			if d.Len() != oracle.Len() {
				return false
			}
			// Occasionally verify the whole contents.
			if rng.Intn(8) == 0 {
				snap := d.Snapshot()
				e := oracle.Front()
				for _, v := range snap {
					if e == nil || v != e.Value.(int) {
						return false
					}
					e = e.Next()
				}
				if e != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPeek(t *testing.T) {
	var d Deque[int]
	if _, ok := d.PeekHead(); ok {
		t.Fatal("peek on empty succeeded")
	}
	if _, ok := d.PeekTail(); ok {
		t.Fatal("peek on empty succeeded")
	}
	d.PushHead(1)
	d.PushHead(2)
	if v, _ := d.PeekHead(); v != 2 {
		t.Fatalf("peek head %d want 2", v)
	}
	if v, _ := d.PeekTail(); v != 1 {
		t.Fatalf("peek tail %d want 1", v)
	}
	if d.Len() != 2 {
		t.Fatal("peek mutated the deque")
	}
}

// At indexes from the head across a wrapped ring, and agrees with Snapshot.
func TestAt(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 20; i++ {
		d.PushTail(i)
	}
	for i := 0; i < 12; i++ {
		d.PopHead()
		d.PushTail(20 + i) // wraps the ring
	}
	snap := d.Snapshot()
	for i := range snap {
		if got := d.At(i); got != snap[i] {
			t.Fatalf("At(%d) = %d, want %d", i, got, snap[i])
		}
	}
	if d.Len() != 20 {
		t.Fatal("At mutated the deque")
	}
}
