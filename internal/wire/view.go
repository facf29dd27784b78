// Zero-copy read-in-place views.
//
// The messages a worker reads field by field on the steal path —
// StealRequest, StealReply (and the closures it carries), StealConfirm, Arg
// and Ack — can be left in the receive buffer instead of materialized into
// structs. Their bodies are the positional layout of codec.go, the one
// every message has; because the fixed-size fields come first, an accessor
// reads each at a fixed offset, and the variable fields after them are
// reached by hopping their length prefixes:
//
//	Closure       ID | Missing | Cont | NoSteal | CkptSeq | TC   (54 fixed bytes)
//	              Fn (u32 length + bytes) | Ckpt (blob) | Args (u32 byte length + value list)
//	StealRequest  Thief i32 | Want u16
//	StealReply    OK u8 | n u16 | n closures, back to back
//	StealConfirm  first Record | n u16
//	Arg           Cont | Crossed u8 | TC | u32 byte length + value
//
// DecodeView validates a view body once — fixed offsets, length hops and
// an exact-consumption check — without parsing a value; ArgView.Val and
// ClosureView.AppendArgs check values as they decode them. Every other
// message, StatReport included, decodes to its owned struct.
//
// Arena + View manage buffer lifetime on the receive path: a UDP datagram
// is read into a pooled, reference-counted Arena, every view frame in it
// becomes a pooled *View envelope payload aliasing those bytes, and the
// arena returns to the pool when the last view is freed. Everything an
// accessor returns without copying is documented as valid only while the
// view is alive.
package wire

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"phish/internal/types"
)

// viewTag reports whether DecodeView leaves a tag's body in place.
func viewTag(tag byte) bool {
	switch tag {
	case tStealRequest, tStealReply, tStealConfirm, tArg, tAck:
		return true
	}
	return false
}

// Field offsets of the fixed parts of a Closure and an Arg.
const (
	clMissing = 12 // after ID
	clCont    = 16
	clNoSteal = 32
	clCkptSeq = 33
	clTC      = 41
	clFixed   = 54 // then Fn, Ckpt, Args

	argCrossed = 16 // after Cont
	argTC      = 17
	argVal     = 30 // u32 byte length, then the value
)

// checkView validates a view tag's body: every fixed field present, every
// length prefix inside the body, every flag 0 or 1, and nothing left over.
// Values are not parsed.
func checkView(tag byte, body []byte) error {
	r := reader{b: body}
	switch tag {
	case tStealRequest:
		r.take(6)
	case tStealReply:
		r.bool()
		for n := r.u16(); n > 0 && r.err == nil; n-- {
			r.skipClosure()
		}
	case tStealConfirm:
		r.take(14)
	case tArg:
		r.take(argCrossed)
		r.bool()
		r.take(argVal - argTC)
		r.skipSized()
	case tAck:
		r.take(8)
	}
	return r.finish()
}

// skipSized steps over a u32 length and that many bytes.
func (r *reader) skipSized() { r.take(int(r.u32())) }

// skipClosure steps over one closure body without decoding it.
func (r *reader) skipClosure() {
	r.take(clNoSteal)
	r.bool()
	r.take(clFixed - clCkptSeq)
	r.skipSized() // Fn
	if n := r.count(1); n >= 0 {
		r.take(n) // Ckpt
	}
	r.skipSized() // Args
}

func decTaskID(b []byte) types.TaskID {
	return types.TaskID{
		Worker: types.WorkerID(int32(binary.BigEndian.Uint32(b))),
		Seq:    binary.BigEndian.Uint64(b[4:]),
	}
}

func decCont(b []byte) types.Continuation {
	return types.Continuation{Task: decTaskID(b), Slot: int32(binary.BigEndian.Uint32(b[12:]))}
}

func decTC(b []byte) TraceCtx {
	return TraceCtx{Parent: decTaskID(b), Flags: b[12]}
}

// ---- Arena ----------------------------------------------------------------

// arenaSize fits a maximum UDP datagram with headroom.
const arenaSize = 64 << 10

// Arena is a pooled, reference-counted receive buffer. The UDP read loop
// reads one datagram into an arena, hands every frame in it out as a view
// (each view holding one reference), drops its own reference, and the
// buffer returns to the pool when the last view is freed — batched
// datagrams share one buffer with no copies.
type Arena struct {
	buf  []byte
	refs atomic.Int32
}

var arenaPool = sync.Pool{New: func() any { return &Arena{buf: make([]byte, arenaSize)} }}

// NewArena draws an arena from the pool with one reference (the
// caller's). Release it once the datagram's frames have been handed off.
func NewArena() *Arena {
	a := arenaPool.Get().(*Arena)
	a.refs.Store(1)
	return a
}

// Bytes is the arena's full backing buffer, for the transport to read a
// datagram into.
func (a *Arena) Bytes() []byte { return a.buf }

// Retain adds a reference.
func (a *Arena) Retain() { a.refs.Add(1) }

// Release drops a reference, returning the arena to the pool when the
// count reaches zero. The caller's data aliases die with the reference.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	if a.refs.Add(-1) == 0 {
		arenaPool.Put(a)
	}
}

// ---- View -----------------------------------------------------------------

// View is a payload decoded in place: a tag plus the raw body, still
// sitting in the receive buffer. Typed accessors (AsArg and friends) read
// fields lazily without materializing a struct. A view envelope's final
// owner must call Envelope.Free (or View.Free) to drop the arena
// reference; Envelope.Materialize converts to an owned struct payload when
// the data must outlive the buffer.
type View struct {
	tag   byte
	body  []byte
	arena *Arena
}

var viewPool = sync.Pool{New: func() any { return new(View) }}

// Name returns the payload's message name (e.g. "StealRequest").
func (v *View) Name() string { return tagName(v.tag) }

// Materialize decodes the view into the owned struct Decode produces for
// the same frame.
func (v *View) Materialize() (any, error) { return readBody(v.tag, v.body) }

// Free releases the view's arena reference and recycles the view. The
// view, and anything its accessors returned without copying, must not be
// used afterwards.
func (v *View) Free() {
	if v == nil {
		return
	}
	v.arena.Release()
	*v = View{}
	viewPool.Put(v)
}

// Materialize swaps a view payload for its owned struct form, releasing
// the view; envelopes that already carry structs are untouched. After a
// successful return the envelope no longer references the receive buffer.
func (e *Envelope) Materialize() error {
	v, ok := e.Payload.(*View)
	if !ok {
		return nil
	}
	p, err := v.Materialize()
	if err != nil {
		return err
	}
	e.Payload = p
	v.Free()
	return nil
}

// DecodeView parses one frame like Decode, but leaves a view tag's payload
// in place: the envelope's Payload is a pooled *View whose accessors read
// frame's bytes directly. When arena is non-nil the view takes one
// reference on it; either way the caller must keep frame's backing memory
// alive until the envelope's final owner frees or materializes it. Every
// other tag decodes to the owned struct Decode returns.
func DecodeView(frame []byte, arena *Arena) (env *Envelope, err error) {
	defer decodePanic(&env, &err)
	e, tag, body, err := parseHeader(frame)
	if err != nil {
		return nil, err
	}
	if !viewTag(tag) {
		e.Payload, err = readBody(tag, body)
	} else if err = checkView(tag, body); err == nil {
		v := viewPool.Get().(*View)
		v.tag, v.body, v.arena = tag, body, arena
		if arena != nil {
			arena.Retain()
		}
		e.Payload = v
	}
	return decoded(e, tag, err)
}

// ---- Typed accessors ------------------------------------------------------

// none is the body behind an accessor an As method returns with ok false:
// every field reads as its zero value instead of indexing past the end.
var none = make([]byte, argVal+5)

// StealRequestView reads a StealRequest in place.
type StealRequestView struct{ b []byte }

// AsStealRequest returns a typed accessor when the view is a StealRequest.
func (v *View) AsStealRequest() (StealRequestView, bool) {
	if v == nil || v.tag != tStealRequest {
		return StealRequestView{none}, false
	}
	return StealRequestView{v.body}, true
}

// Thief is the requesting worker.
func (s StealRequestView) Thief() types.WorkerID {
	return types.WorkerID(int32(binary.BigEndian.Uint32(s.b)))
}

// Want is how many closures the thief asked for.
func (s StealRequestView) Want() uint16 { return binary.BigEndian.Uint16(s.b[4:]) }

// StealReplyView reads a StealReply in place.
type StealReplyView struct{ b []byte }

// AsStealReply returns a typed accessor when the view is a StealReply.
func (v *View) AsStealReply() (StealReplyView, bool) {
	if v == nil || v.tag != tStealReply {
		return StealReplyView{none}, false
	}
	return StealReplyView{v.body}, true
}

// OK reports whether the steal succeeded.
func (s StealReplyView) OK() bool { return s.b[0] != 0 }

// noTask is the encoding of the zero Closure: a reply without a task reads
// as one.
var noTask, _ = AppendClosure(nil, &Closure{})

// N is the number of closures the reply carries.
func (s StealReplyView) N() int { return int(binary.BigEndian.Uint16(s.b[1:])) }

// Task is the first (oldest) stolen closure, the zero closure when the
// reply carries none.
func (s StealReplyView) Task() ClosureView {
	if s.N() == 0 {
		return ClosureView{noTask}
	}
	return ClosureView{s.b[3:]}
}

// Tasks walks every closure the reply carries, oldest first.
func (s StealReplyView) Tasks() ClosureIter { return ClosureIter{s.b[3:], s.N()} }

// ClosureIter hops the closures of a batch in place, one length-prefixed
// hop per closure; DecodeView validated every hop.
type ClosureIter struct {
	b []byte
	n int
}

// Next returns the next closure, ok false after the last.
func (it *ClosureIter) Next() (c ClosureView, ok bool) {
	if it.n == 0 {
		return ClosureView{noTask}, false
	}
	r := reader{b: it.b}
	r.skipClosure()
	c, it.b, it.n = ClosureView{it.b[:r.off]}, it.b[r.off:], it.n-1
	return c, true
}

// ClosureView reads a wire Closure in place.
type ClosureView struct{ b []byte }

// ID is the task id.
func (c ClosureView) ID() types.TaskID { return decTaskID(c.b) }

// Missing is the count of unfilled argument slots.
func (c ClosureView) Missing() int32 { return int32(binary.BigEndian.Uint32(c.b[clMissing:])) }

// Cont is the continuation the task's result feeds.
func (c ClosureView) Cont() types.Continuation { return decCont(c.b[clCont:]) }

// NoSteal reports whether the closure is pinned to its worker.
func (c ClosureView) NoSteal() bool { return c.b[clNoSteal] != 0 }

// CkptSeq orders checkpoint blobs for the task.
func (c ClosureView) CkptSeq() uint64 { return binary.BigEndian.Uint64(c.b[clCkptSeq:]) }

// TC is the closure's trace context.
func (c ClosureView) TC() TraceCtx { return decTC(c.b[clTC:]) }

// tail hops the variable fields: the Fn bytes, the Ckpt blob (ok false
// when absent) and the Args value list.
func (c ClosureView) tail() (fn, ckpt []byte, ok bool, args []byte) {
	r := reader{b: c.b, off: clFixed}
	fn = r.take(int(r.u32()))
	if n := r.count(1); n >= 0 {
		ckpt, ok = r.take(n), true
	}
	args = r.take(int(r.u32()))
	return fn, ckpt, ok, args
}

// Fn is the task function name, interned so repeated decodes of the same
// job's handful of functions allocate nothing.
func (c ClosureView) Fn() string {
	fn, _, _, _ := c.tail()
	return internName(fn)
}

// Ckpt returns the checkpoint blob without copying — the bytes alias the
// receive buffer and are valid only while the view is alive. ok
// distinguishes an absent blob from an empty one.
func (c ClosureView) Ckpt() (blob []byte, ok bool) {
	_, blob, ok, _ = c.tail()
	return blob, ok
}

// AppendArgs decodes the argument slots onto dst (typically a pooled
// closure's recycled backing array) and returns the extended slice.
// Argument values are owned copies; a nil argument list appends nothing.
func (c ClosureView) AppendArgs(dst []types.Value) ([]types.Value, error) {
	_, _, _, args := c.tail()
	r := reader{b: args}
	n := r.count(1)
	for i := 0; i < n && r.err == nil; i++ {
		dst = append(dst, r.value(0))
	}
	return dst, r.finish()
}

// StealConfirmView reads a StealConfirm in place.
type StealConfirmView struct{ b []byte }

// AsStealConfirm returns a typed accessor when the view is a StealConfirm.
func (v *View) AsStealConfirm() (StealConfirmView, bool) {
	if v == nil || v.tag != tStealConfirm {
		return StealConfirmView{none}, false
	}
	return StealConfirmView{v.body}, true
}

// Record is the first confirmed steal record's id.
func (s StealConfirmView) Record() types.TaskID { return decTaskID(s.b) }

// N is how many consecutive records the confirm names.
func (s StealConfirmView) N() uint16 { return binary.BigEndian.Uint16(s.b[12:]) }

// ArgView reads an Arg in place.
type ArgView struct{ b []byte }

// AsArg returns a typed accessor when the view is an Arg.
func (v *View) AsArg() (ArgView, bool) {
	if v == nil || v.tag != tArg {
		return ArgView{none}, false
	}
	return ArgView{v.body}, true
}

// Cont is the destination argument slot.
func (a ArgView) Cont() types.Continuation { return decCont(a.b) }

// Val decodes the delivered value. Scalar values box without copying
// frame bytes; strings, byte slices, and nested values are owned copies,
// so the result may outlive the view.
func (a ArgView) Val() (types.Value, error) { return readValue(a.b[argVal+4:]) }

// Crossed reports whether the value crossed a worker boundary en route.
func (a ArgView) Crossed() bool { return a.b[argCrossed] != 0 }

// TC is the producing task's trace context.
func (a ArgView) TC() TraceCtx { return decTC(a.b[argTC:]) }

// AckView reads an Ack in place.
type AckView struct{ b []byte }

// AsAck returns a typed accessor when the view is an Ack.
func (v *View) AsAck() (AckView, bool) {
	if v == nil || v.tag != tAck {
		return AckView{none}, false
	}
	return AckView{v.body}, true
}

// Seq is the acknowledged sequence number.
func (a AckView) Seq() uint64 { return binary.BigEndian.Uint64(a.b) }
