// Package deque implements the ready-task deque at the heart of the
// micro-level scheduler (Figure 1 of the paper).
//
// The owning worker treats the head as a stack: newly spawned ready tasks
// are pushed at the head and the next task to execute is popped from the
// head (LIFO order, which keeps the working set small). Thieves take the
// task at the tail (FIFO order, which for tree-shaped computations hands
// out tasks near the base of the tree — tasks that will spawn many
// descendants, so one steal buys a lot of local work).
//
// The deque is an amortized O(1) growable ring buffer whose capacity is
// always a power of two (minCap doubled), so indices wrap with a mask
// instead of an integer division. It is NOT synchronized: in the Phish
// runtime all access — including steals — is performed by the owning
// worker's scheduler loop in response to messages, exactly as in the
// paper's message-based design. Runtimes that share memory
// (internal/strata) wrap it with their own lock.
package deque

// Deque is a double-ended queue of T.
// The zero value is an empty deque ready for use.
type Deque[T any] struct {
	buf  []T
	head int // index of the element at the head, when n > 0
	n    int
}

// minCap is the initial capacity allocated on first push. It must be a
// power of two: grow only ever doubles it, and every index is wrapped with
// len(buf)-1 as a mask.
const minCap = 16

// Len returns the number of elements in the deque.
func (d *Deque[T]) Len() int { return d.n }

// Empty reports whether the deque holds no elements.
func (d *Deque[T]) Empty() bool { return d.n == 0 }

func (d *Deque[T]) grow() {
	newCap := 2 * len(d.buf)
	if newCap == 0 {
		newCap = minCap
	}
	if newCap&(newCap-1) != 0 {
		panic("deque: capacity is not a power of two")
	}
	buf := make([]T, newCap)
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf = buf
	d.head = 0
}

// PushHead inserts v at the head of the deque. Newly spawned ready tasks
// go here.
func (d *Deque[T]) PushHead(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = v
	d.n++
}

// PushTail inserts v at the tail of the deque. The Phish scheduler does not
// use this in its default configuration; it exists for the FIFO-execution
// ablation and for re-injecting migrated tasks behind local work.
func (d *Deque[T]) PushTail(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = v
	d.n++
}

// PopHead removes and returns the element at the head (the task executed
// next under the paper's LIFO discipline). ok is false if the deque is
// empty.
func (d *Deque[T]) PopHead() (v T, ok bool) {
	if d.n == 0 {
		return v, false
	}
	v = d.buf[d.head]
	var zero T
	d.buf[d.head] = zero // release reference for GC
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return v, true
}

// PopTail removes and returns the element at the tail (the task handed to a
// thief under the paper's FIFO-steal discipline). ok is false if the deque
// is empty.
func (d *Deque[T]) PopTail() (v T, ok bool) {
	if d.n == 0 {
		return v, false
	}
	i := (d.head + d.n - 1) & (len(d.buf) - 1)
	v = d.buf[i]
	var zero T
	d.buf[i] = zero
	d.n--
	return v, true
}

// PeekHead returns the head element without removing it.
func (d *Deque[T]) PeekHead() (v T, ok bool) {
	if d.n == 0 {
		return v, false
	}
	return d.buf[d.head], true
}

// PeekTail returns the tail element without removing it.
func (d *Deque[T]) PeekTail() (v T, ok bool) {
	if d.n == 0 {
		return v, false
	}
	return d.buf[(d.head+d.n-1)&(len(d.buf)-1)], true
}

// At returns the element i places from the head (0 is the head, Len()-1
// the tail) without removing it. i must be in [0, Len()).
func (d *Deque[T]) At(i int) T {
	if i < 0 || i >= d.n {
		panic("deque: index out of range")
	}
	return d.buf[(d.head+i)&(len(d.buf)-1)]
}

// Drain removes and returns all elements in head-to-tail order, leaving the
// deque empty. Used when a worker migrates its work before termination.
func (d *Deque[T]) Drain() []T {
	out := make([]T, 0, d.n)
	for {
		v, ok := d.PopHead()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// Snapshot returns the elements in head-to-tail order without modifying the
// deque. Used by the fault-tolerance checkpointing path and by tests.
func (d *Deque[T]) Snapshot() []T {
	out := make([]T, d.n)
	for i := 0; i < d.n; i++ {
		out[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	return out
}
