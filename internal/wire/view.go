// Zero-copy read-in-place views: wire format v2.
//
// The hot scheduler messages — StealRequest, StealReply (and the Closure
// it carries), StealConfirm, Arg, Heartbeat, Ack, StatReport — are encoded
// with an explicit field-keyed layout so receivers can read them in place
// from the receive buffer instead of materializing structs:
//
//	offset 0..29  the frame header of codec.go, version byte = 2
//	offset 30     u8 field count
//	then per field:
//	              u8  key = fieldID<<2 | wiretype
//	              payload, sized by the wiretype:
//	                wt1:   1 byte
//	                wt4:   4 bytes
//	                wt8:   8 bytes
//	                wtLen: u32 length + that many bytes
//
// Zero-valued fields are omitted (a nil slice is an omitted field; an
// empty-but-present slice is encoded with an inner count of 0, so nil and
// empty round-trip distinctly). A decoder skips fields whose id or
// wiretype it does not recognize — the wiretype alone determines the skip
// distance — so old and new daemons interoperate: a newer sender's extra
// fields are ignored, and its readers treat an older sender's missing
// fields as zero. The leading field count keeps truncation detectable
// (a prefix-cut body fails the walk instead of silently decoding as
// "fields absent").
//
// These seven tags have no other body; the cold control-plane tags
// (Register, Migrate, job queue RPCs, ...) have only the positional one of
// codec.go. Nothing reads a cold tag in place or needs to skip a field of
// one, and a positional body costs a third of the code per tag.
//
// Arena + View manage buffer lifetime on the receive path: a UDP datagram
// is read into a pooled, reference-counted Arena, every frame in it
// becomes a pooled *View envelope payload aliasing those bytes, and the
// arena returns to the pool when the last view is freed. Accessors are
// lazy — a steal request costs one field scan, not a decoded struct — and
// everything an accessor returns without copying is documented as valid
// only while the view is alive.
package wire

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"phish/internal/types"
)

// frameVersionV2 marks a frame whose body is the field-keyed layout above.
const frameVersionV2 = 2

// v2 wiretypes: the low two bits of a field key.
const (
	wt1   byte = 0 // 1 fixed byte
	wt4   byte = 1 // 4 fixed bytes
	wt8   byte = 2 // 8 fixed bytes
	wtLen byte = 3 // u32 length + bytes
)

// Field ids. Like tags and span kinds these are wire format: append new
// ids (1..63), never renumber. Id 0 is reserved so an all-zero key never
// parses as a real field.
const (
	fSRqThief = 1 // StealRequest

	fSRpOK   = 1 // StealReply
	fSRpTask = 2

	fSCRecord = 1 // StealConfirm

	fArgCont    = 1 // Arg
	fArgVal     = 2
	fArgCrossed = 3
	fArgTC      = 4

	fHBWorker = 1 // Heartbeat
	fHBSendNS = 2

	fAckSeq = 1 // Ack

	fStVer     = 1 // StatReport
	fStWorker  = 2
	fStDeque   = 3
	fStCount   = 4
	fStHists   = 5
	fStCkpts   = 6
	fStSpanSeq = 7
	fStOffNS   = 8
	fStSpans   = 9

	fClID      = 1 // Closure (sub-body inside StealReply.Task)
	fClFn      = 2
	fClArgs    = 3
	fClMissing = 4
	fClCont    = 5
	fClNoSteal = 6
	fClCkpt    = 7
	fClCkptSeq = 8
	fClTC      = 9
)

// v2Tag reports whether tag is one of the hot tags, whose body is the
// field-keyed layout.
func v2Tag(tag byte) bool {
	switch tag {
	case tStealRequest, tStealReply, tStealConfirm, tArg, tHeartbeat, tAck, tStatReport:
		return true
	}
	return false
}

// ---- v2 encoder -----------------------------------------------------------

// v2enc appends one field-keyed body: a count byte patched at the end,
// then one appended field per emitted value. It lives on the caller's
// stack; the only heap traffic is growth of the target buffer itself.
type v2enc struct {
	b  []byte
	at int // index of the count byte
	n  byte
}

func beginV2(b []byte) v2enc {
	b = append(b, 0)
	return v2enc{b: b, at: len(b) - 1}
}

func (e *v2enc) done() []byte {
	e.b[e.at] = e.n
	return e.b
}

func (e *v2enc) f1(id byte, v byte) {
	e.b = append(e.b, id<<2|wt1, v)
	e.n++
}

func (e *v2enc) f4(id byte, v uint32) {
	e.b = appendU32(append(e.b, id<<2|wt4), v)
	e.n++
}

func (e *v2enc) f8(id byte, v uint64) {
	e.b = appendU64(append(e.b, id<<2|wt8), v)
	e.n++
}

// begin opens a length-delimited field; end patches its length once the
// content is in place.
func (e *v2enc) begin(id byte) int {
	e.b = append(e.b, id<<2|wtLen, 0, 0, 0, 0)
	e.n++
	return len(e.b) - 4
}

func (e *v2enc) end(at int) {
	binary.BigEndian.PutUint32(e.b[at:at+4], uint32(len(e.b)-at-4))
}

func (e *v2enc) fBytes(id byte, p []byte) {
	e.b = appendU32(append(e.b, id<<2|wtLen), uint32(len(p)))
	e.b = append(e.b, p...)
	e.n++
}

func (e *v2enc) fStr(id byte, s string) {
	e.b = appendU32(append(e.b, id<<2|wtLen), uint32(len(s)))
	e.b = append(e.b, s...)
	e.n++
}

func (e *v2enc) fTaskID(id byte, t types.TaskID) {
	e.b = append(e.b, id<<2|wtLen, 0, 0, 0, 12)
	e.b = appendTaskID(e.b, t)
	e.n++
}

func (e *v2enc) fCont(id byte, c types.Continuation) {
	e.b = append(e.b, id<<2|wtLen, 0, 0, 0, 16)
	e.b = appendCont(e.b, c)
	e.n++
}

func (e *v2enc) fTC(id byte, tc TraceCtx) {
	e.b = append(e.b, id<<2|wtLen, 0, 0, 0, 13)
	e.b = appendTC(e.b, tc)
	e.n++
}

func closureIsZero(c *Closure) bool {
	return c.ID == (types.TaskID{}) && c.Fn == "" && c.Args == nil &&
		c.Missing == 0 && c.Cont == (types.Continuation{}) && !c.NoSteal &&
		c.Ckpt == nil && c.CkptSeq == 0 && c.TC == (TraceCtx{})
}

// appendClosureV2 writes a closure as a nested field-keyed sub-body.
func appendClosureV2(b []byte, c *Closure) ([]byte, error) {
	e := beginV2(b)
	if c.ID != (types.TaskID{}) {
		e.fTaskID(fClID, c.ID)
	}
	if c.Fn != "" {
		e.fStr(fClFn, c.Fn)
	}
	if c.Args != nil {
		at := e.begin(fClArgs)
		e.b = appendU32(e.b, uint32(len(c.Args)))
		var err error
		for _, v := range c.Args {
			if e.b, err = appendValue(e.b, v); err != nil {
				return nil, err
			}
		}
		e.end(at)
	}
	if c.Missing != 0 {
		e.f4(fClMissing, uint32(c.Missing))
	}
	if c.Cont != (types.Continuation{}) {
		e.fCont(fClCont, c.Cont)
	}
	if c.NoSteal {
		e.f1(fClNoSteal, 1)
	}
	if c.Ckpt != nil {
		e.fBytes(fClCkpt, c.Ckpt)
	}
	if c.CkptSeq != 0 {
		e.f8(fClCkptSeq, c.CkptSeq)
	}
	if c.TC != (TraceCtx{}) {
		e.fTC(fClTC, c.TC)
	}
	return e.done(), nil
}

// appendPayloadV2 writes the body of a hot payload. AppendEncode dispatches
// here for the tags v2Tag accepts, which includes a *View of one: its body
// is spliced as received, keeping even fields this build does not know.
func appendPayloadV2(b []byte, p any) ([]byte, error) {
	if v, ok := p.(*View); ok {
		return append(b, v.body...), nil
	}
	e := beginV2(b)
	switch x := p.(type) {
	case StealRequest:
		if x.Thief != 0 {
			e.f4(fSRqThief, uint32(int32(x.Thief)))
		}
	case StealReply:
		if x.OK {
			e.f1(fSRpOK, 1)
		}
		if !closureIsZero(&x.Task) {
			at := e.begin(fSRpTask)
			var err error
			if e.b, err = appendClosureV2(e.b, &x.Task); err != nil {
				return nil, err
			}
			e.end(at)
		}
	case StealConfirm:
		if x.Record != (types.TaskID{}) {
			e.fTaskID(fSCRecord, x.Record)
		}
	case Arg:
		if x.Cont != (types.Continuation{}) {
			e.fCont(fArgCont, x.Cont)
		}
		if x.Val != nil {
			at := e.begin(fArgVal)
			var err error
			if e.b, err = appendValue(e.b, x.Val); err != nil {
				return nil, err
			}
			e.end(at)
		}
		if x.Crossed {
			e.f1(fArgCrossed, 1)
		}
		if x.TC != (TraceCtx{}) {
			e.fTC(fArgTC, x.TC)
		}
	case Heartbeat:
		if x.Worker != 0 {
			e.f4(fHBWorker, uint32(int32(x.Worker)))
		}
		if x.SendNS != 0 {
			e.f8(fHBSendNS, uint64(x.SendNS))
		}
	case Ack:
		if x.Seq != 0 {
			e.f8(fAckSeq, x.Seq)
		}
	case StatReport:
		if x.Ver != 0 {
			e.f4(fStVer, uint32(x.Ver))
		}
		if x.Worker != 0 {
			e.f4(fStWorker, uint32(int32(x.Worker)))
		}
		if x.Deque != 0 {
			e.f4(fStDeque, uint32(x.Deque))
		}
		if x.Counters != nil {
			at := e.begin(fStCount)
			e.b = appendU32(e.b, uint32(len(x.Counters)))
			for _, v := range x.Counters {
				e.b = appendI64(e.b, v)
			}
			e.end(at)
		}
		if x.Hists != nil {
			at := e.begin(fStHists)
			e.b = appendU32(e.b, uint32(len(x.Hists)))
			for _, h := range x.Hists {
				e.b = appendI32(e.b, h.Kind)
				e.b = appendI64(e.b, h.Count)
				e.b = appendI64(e.b, h.Sum)
				e.b = appendI64s(e.b, h.Counts)
			}
			e.end(at)
		}
		if x.Ckpts != nil {
			at := e.begin(fStCkpts)
			e.b = appendU32(e.b, uint32(len(x.Ckpts)))
			for _, c := range x.Ckpts {
				e.b = appendTaskID(e.b, c.Task)
				e.b = appendU64(e.b, c.Seq)
				e.b = appendBlob(e.b, c.Data)
			}
			e.end(at)
		}
		if x.SpanSeq != 0 {
			e.f8(fStSpanSeq, x.SpanSeq)
		}
		if x.ClockOffNS != 0 {
			e.f8(fStOffNS, uint64(x.ClockOffNS))
		}
		if x.Spans != nil {
			at := e.begin(fStSpans)
			e.b = appendU32(e.b, uint32(len(x.Spans)))
			for _, s := range x.Spans {
				e.b = append(e.b, s.Kind, s.Flags)
				e.b = appendI32(e.b, int32(s.Worker))
				e.b = appendTaskID(e.b, s.Task)
				e.b = appendTaskID(e.b, s.Parent)
				e.b = appendTaskID(e.b, s.Link)
				e.b = appendI32(e.b, int32(s.Peer))
				e.b = appendI64(e.b, s.Start)
				e.b = appendI64(e.b, s.End)
			}
			e.end(at)
		}
	default:
		return nil, fmt.Errorf("no v2 shape for %T", p)
	}
	return e.done(), nil
}

// ---- v2 walker ------------------------------------------------------------

// v2walker iterates a field-keyed body with bounds checks and a sticky
// error, mirroring the reader in codec.go.
type v2walker struct {
	b    []byte
	off  int
	left int
	err  error
}

func newV2Walker(b []byte) v2walker {
	if len(b) == 0 {
		return v2walker{err: errShortFrame}
	}
	return v2walker{b: b, off: 1, left: int(b[0])}
}

// next returns the next field. ok=false means the walk is over — the
// caller checks finish (or w.err) to distinguish completion from damage.
func (w *v2walker) next() (id, wt byte, val []byte, ok bool) {
	if w.err != nil || w.left == 0 {
		return 0, 0, nil, false
	}
	w.left--
	if w.off >= len(w.b) {
		w.err = errShortFrame
		return 0, 0, nil, false
	}
	key := w.b[w.off]
	w.off++
	id, wt = key>>2, key&3
	n := 0
	switch wt {
	case wt1:
		n = 1
	case wt4:
		n = 4
	case wt8:
		n = 8
	case wtLen:
		if len(w.b)-w.off < 4 {
			w.err = errShortFrame
			return 0, 0, nil, false
		}
		n = int(binary.BigEndian.Uint32(w.b[w.off:]))
		w.off += 4
	}
	if n < 0 || len(w.b)-w.off < n {
		w.err = errShortFrame
		return 0, 0, nil, false
	}
	val = w.b[w.off : w.off+n]
	w.off += n
	return id, wt, val, true
}

// finish reports whether the walk consumed the body exactly: the declared
// number of fields, no trailing bytes.
func (w *v2walker) finish() error {
	if w.err != nil {
		return w.err
	}
	if w.left != 0 || w.off != len(w.b) {
		return errShortFrame
	}
	return nil
}

// validateV2 walks every field of a body once so views handed to
// consumers are known to be well-framed (nested content is still
// re-checked lazily by accessors).
func validateV2(body []byte) error {
	w := newV2Walker(body)
	for {
		if _, _, _, ok := w.next(); !ok {
			break
		}
	}
	return w.finish()
}

// v2field scans body for the first field with the given id and wiretype.
// A field whose id matches but whose wiretype does not is treated as
// unknown, the same forward-compatibility rule as skipping: both halves of
// the key are the field's identity.
func v2field(body []byte, id, wt byte) ([]byte, bool) {
	w := newV2Walker(body)
	for {
		fid, fwt, val, ok := w.next()
		if !ok {
			return nil, false
		}
		if fid == id && fwt == wt {
			return val, true
		}
	}
}

func v2u32(body []byte, id byte) uint32 {
	val, ok := v2field(body, id, wt4)
	if !ok {
		return 0
	}
	return binary.BigEndian.Uint32(val)
}

func v2u64(body []byte, id byte) uint64 {
	val, ok := v2field(body, id, wt8)
	if !ok {
		return 0
	}
	return binary.BigEndian.Uint64(val)
}

func v2bool(body []byte, id byte) bool {
	val, ok := v2field(body, id, wt1)
	return ok && val[0] != 0
}

// The fixed-size composites travel as wtLen fields of exactly this many
// bytes; a field of any other length is treated as unknown.
const (
	taskIDLen = 12
	contLen   = 16
	tcLen     = 13
)

func decTaskID(val []byte) types.TaskID {
	return types.TaskID{
		Worker: types.WorkerID(int32(binary.BigEndian.Uint32(val))),
		Seq:    binary.BigEndian.Uint64(val[4:]),
	}
}

func decCont(val []byte) types.Continuation {
	return types.Continuation{Task: decTaskID(val), Slot: int32(binary.BigEndian.Uint32(val[12:]))}
}

func decTC(val []byte) TraceCtx {
	return TraceCtx{Parent: decTaskID(val), Flags: val[12]}
}

func v2taskID(body []byte, id byte) types.TaskID {
	val, ok := v2field(body, id, wtLen)
	if !ok || len(val) != taskIDLen {
		return types.TaskID{}
	}
	return decTaskID(val)
}

func v2cont(body []byte, id byte) types.Continuation {
	val, ok := v2field(body, id, wtLen)
	if !ok || len(val) != contLen {
		return types.Continuation{}
	}
	return decCont(val)
}

func v2tc(body []byte, id byte) TraceCtx {
	val, ok := v2field(body, id, wtLen)
	if !ok || len(val) != tcLen {
		return TraceCtx{}
	}
	return decTC(val)
}

// ---- v2 materialization ---------------------------------------------------

// readCounted decodes the content of a wtLen slice field: an explicit u32
// element count checked against the bytes present (minElem is the smallest
// encoding of one element), the elements, and nothing after them — an
// extension never grows an existing field, it adds a new field id.
func readCounted[T any](b []byte, minElem int, elem func(*reader) T) ([]T, error) {
	r := reader{b: b}
	n := int(r.u32())
	if r.err == nil && n > r.rem()/minElem {
		r.fail()
	}
	if r.err != nil {
		return nil, r.err
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem(&r)
	}
	return out, r.finish()
}

// readValue decodes a wtLen field holding exactly one value.
func readValue(b []byte) (types.Value, error) {
	r := reader{b: b}
	v := r.value(0)
	if err := r.finish(); err != nil {
		return nil, err
	}
	return v, nil
}

func materializeClosureV2(body []byte) (Closure, error) {
	var c Closure
	w := newV2Walker(body)
	for {
		id, wt, val, ok := w.next()
		if !ok {
			break
		}
		var err error
		switch {
		case id == fClID && wt == wtLen && len(val) == taskIDLen:
			c.ID = decTaskID(val)
		case id == fClFn && wt == wtLen:
			c.Fn = internName(val)
		case id == fClArgs && wt == wtLen:
			if c.Args, err = readCounted(val, 1, (*reader).topValue); err != nil {
				return c, err
			}
		case id == fClMissing && wt == wt4:
			c.Missing = int32(binary.BigEndian.Uint32(val))
		case id == fClCont && wt == wtLen && len(val) == contLen:
			c.Cont = decCont(val)
		case id == fClNoSteal && wt == wt1:
			c.NoSteal = val[0] != 0
		case id == fClCkpt && wt == wtLen:
			c.Ckpt = make([]byte, len(val))
			copy(c.Ckpt, val)
		case id == fClCkptSeq && wt == wt8:
			c.CkptSeq = binary.BigEndian.Uint64(val)
		case id == fClTC && wt == wtLen && len(val) == tcLen:
			c.TC = decTC(val)
		}
	}
	return c, w.finish()
}

// materializeV2 decodes a hot tag's body into its owned struct: strings,
// blobs, and slices are copied out of the frame, so the result survives
// arena reuse.
func materializeV2(tag byte, body []byte) (any, error) {
	w := newV2Walker(body)
	var p any
	var err error
	switch tag {
	case tStealRequest:
		var m StealRequest
		for {
			id, wt, val, ok := w.next()
			if !ok {
				break
			}
			if id == fSRqThief && wt == wt4 {
				m.Thief = types.WorkerID(int32(binary.BigEndian.Uint32(val)))
			}
		}
		p = m
	case tStealReply:
		var m StealReply
		for {
			id, wt, val, ok := w.next()
			if !ok {
				break
			}
			switch {
			case id == fSRpOK && wt == wt1:
				m.OK = val[0] != 0
			case id == fSRpTask && wt == wtLen:
				if m.Task, err = materializeClosureV2(val); err != nil {
					return nil, err
				}
			}
		}
		p = m
	case tStealConfirm:
		var m StealConfirm
		for {
			id, wt, val, ok := w.next()
			if !ok {
				break
			}
			if id == fSCRecord && wt == wtLen && len(val) == taskIDLen {
				m.Record = decTaskID(val)
			}
		}
		p = m
	case tArg:
		var m Arg
		for {
			id, wt, val, ok := w.next()
			if !ok {
				break
			}
			switch {
			case id == fArgCont && wt == wtLen && len(val) == contLen:
				m.Cont = decCont(val)
			case id == fArgVal && wt == wtLen:
				if m.Val, err = readValue(val); err != nil {
					return nil, err
				}
			case id == fArgCrossed && wt == wt1:
				m.Crossed = val[0] != 0
			case id == fArgTC && wt == wtLen && len(val) == tcLen:
				m.TC = decTC(val)
			}
		}
		p = m
	case tHeartbeat:
		var m Heartbeat
		for {
			id, wt, val, ok := w.next()
			if !ok {
				break
			}
			switch {
			case id == fHBWorker && wt == wt4:
				m.Worker = types.WorkerID(int32(binary.BigEndian.Uint32(val)))
			case id == fHBSendNS && wt == wt8:
				m.SendNS = int64(binary.BigEndian.Uint64(val))
			}
		}
		p = m
	case tAck:
		var m Ack
		for {
			id, wt, val, ok := w.next()
			if !ok {
				break
			}
			if id == fAckSeq && wt == wt8 {
				m.Seq = binary.BigEndian.Uint64(val)
			}
		}
		p = m
	case tStatReport:
		var m StatReport
		for {
			id, wt, val, ok := w.next()
			if !ok {
				break
			}
			switch {
			case id == fStVer && wt == wt4:
				m.Ver = int32(binary.BigEndian.Uint32(val))
			case id == fStWorker && wt == wt4:
				m.Worker = types.WorkerID(int32(binary.BigEndian.Uint32(val)))
			case id == fStDeque && wt == wt4:
				m.Deque = int32(binary.BigEndian.Uint32(val))
			case id == fStCount && wt == wtLen:
				if m.Counters, err = readCounted(val, 8, (*reader).i64); err != nil {
					return nil, err
				}
			case id == fStHists && wt == wtLen:
				// At least kind + count + sum + nil-flag.
				if m.Hists, err = readCounted(val, 21, (*reader).histState); err != nil {
					return nil, err
				}
			case id == fStCkpts && wt == wtLen:
				// At least taskID + seq + blob flag.
				if m.Ckpts, err = readCounted(val, 21, (*reader).taskCkpt); err != nil {
					return nil, err
				}
			case id == fStSpanSeq && wt == wt8:
				m.SpanSeq = binary.BigEndian.Uint64(val)
			case id == fStOffNS && wt == wt8:
				m.ClockOffNS = int64(binary.BigEndian.Uint64(val))
			case id == fStSpans && wt == wtLen:
				if m.Spans, err = readCounted(val, spanWireLen, (*reader).span); err != nil {
					return nil, err
				}
			}
		}
		p = m
	default:
		return nil, fmt.Errorf("wire: no v2 shape for %s", tagName(tag))
	}
	return p, w.finish()
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

// View is a decoded-in-place v2 payload: a tag plus the raw field-keyed
// body, still sitting in the receive buffer. Typed accessors (AsArg and
// friends) read fields lazily without materializing a struct. A view
// envelope's final owner must call Envelope.Free (or View.Free) to drop
// the arena reference; Envelope.Materialize converts to an owned struct
// payload when the data must outlive the buffer.
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
func (v *View) Materialize() (any, error) { return materializeV2(v.tag, v.body) }

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

// DecodeView parses one frame like Decode, but leaves a hot payload in
// place: the envelope's Payload is a pooled *View whose accessors read
// frame's bytes directly. When arena is non-nil the view takes one
// reference on it; either way the caller must keep frame's backing memory
// alive until the envelope's final owner frees or materializes it. A cold
// tag has no view form and decodes to the owned struct Decode returns.
func DecodeView(frame []byte, arena *Arena) (env *Envelope, err error) {
	defer decodePanic(&env, &err)
	e, tag, body, err := parseHeader(frame)
	if err != nil {
		return nil, err
	}
	if !v2Tag(tag) {
		e.Payload, err = readBody(tag, body)
	} else if err = validateV2(body); err == nil {
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

// StealRequestView reads a StealRequest in place.
type StealRequestView struct{ b []byte }

// AsStealRequest returns a typed accessor when the view is a StealRequest.
func (v *View) AsStealRequest() (StealRequestView, bool) {
	if v == nil || v.tag != tStealRequest {
		return StealRequestView{}, false
	}
	return StealRequestView{v.body}, true
}

// Thief is the requesting worker.
func (s StealRequestView) Thief() types.WorkerID {
	return types.WorkerID(int32(v2u32(s.b, fSRqThief)))
}

// StealReplyView reads a StealReply in place.
type StealReplyView struct{ b []byte }

// AsStealReply returns a typed accessor when the view is a StealReply.
func (v *View) AsStealReply() (StealReplyView, bool) {
	if v == nil || v.tag != tStealReply {
		return StealReplyView{}, false
	}
	return StealReplyView{v.body}, true
}

// OK reports whether the steal succeeded.
func (s StealReplyView) OK() bool { return v2bool(s.b, fSRpOK) }

// Task is the stolen closure (a zero-field view when the steal failed).
func (s StealReplyView) Task() ClosureView {
	val, _ := v2field(s.b, fSRpTask, wtLen)
	return ClosureView{val}
}

// ClosureView reads a wire Closure in place.
type ClosureView struct{ b []byte }

// ID is the task id.
func (c ClosureView) ID() types.TaskID { return v2taskID(c.b, fClID) }

// Fn is the task function name, interned so repeated decodes of the same
// job's handful of functions allocate nothing.
func (c ClosureView) Fn() string {
	val, ok := v2field(c.b, fClFn, wtLen)
	if !ok {
		return ""
	}
	return internName(val)
}

// AppendArgs decodes the argument slots onto dst (typically a pooled
// closure's recycled backing array) and returns the extended slice.
// Argument values are owned copies; a missing args field appends nothing.
func (c ClosureView) AppendArgs(dst []types.Value) ([]types.Value, error) {
	val, ok := v2field(c.b, fClArgs, wtLen)
	if !ok {
		return dst, nil
	}
	r := reader{b: val}
	n := int(r.u32())
	if r.err == nil && n > r.rem() {
		r.fail()
	}
	for i := 0; i < n && r.err == nil; i++ {
		dst = append(dst, r.value(0))
	}
	return dst, r.finish()
}

// Missing is the count of unfilled argument slots.
func (c ClosureView) Missing() int32 { return int32(v2u32(c.b, fClMissing)) }

// Cont is the continuation the task's result feeds.
func (c ClosureView) Cont() types.Continuation { return v2cont(c.b, fClCont) }

// NoSteal reports whether the closure is pinned to its worker.
func (c ClosureView) NoSteal() bool { return v2bool(c.b, fClNoSteal) }

// Ckpt returns the checkpoint blob without copying — the bytes alias the
// receive buffer and are valid only while the view is alive. ok
// distinguishes an absent blob from an empty one.
func (c ClosureView) Ckpt() (blob []byte, ok bool) { return v2field(c.b, fClCkpt, wtLen) }

// CkptSeq orders checkpoint blobs for the task.
func (c ClosureView) CkptSeq() uint64 { return v2u64(c.b, fClCkptSeq) }

// TC is the closure's trace context.
func (c ClosureView) TC() TraceCtx { return v2tc(c.b, fClTC) }

// StealConfirmView reads a StealConfirm in place.
type StealConfirmView struct{ b []byte }

// AsStealConfirm returns a typed accessor when the view is a StealConfirm.
func (v *View) AsStealConfirm() (StealConfirmView, bool) {
	if v == nil || v.tag != tStealConfirm {
		return StealConfirmView{}, false
	}
	return StealConfirmView{v.body}, true
}

// Record is the confirmed steal record's id.
func (s StealConfirmView) Record() types.TaskID { return v2taskID(s.b, fSCRecord) }

// ArgView reads an Arg in place.
type ArgView struct{ b []byte }

// AsArg returns a typed accessor when the view is an Arg.
func (v *View) AsArg() (ArgView, bool) {
	if v == nil || v.tag != tArg {
		return ArgView{}, false
	}
	return ArgView{v.body}, true
}

// Cont is the destination argument slot.
func (a ArgView) Cont() types.Continuation { return v2cont(a.b, fArgCont) }

// Val decodes the delivered value. Scalar values box without copying
// frame bytes; strings, byte slices, and nested values are owned copies,
// so the result may outlive the view.
func (a ArgView) Val() (types.Value, error) {
	val, ok := v2field(a.b, fArgVal, wtLen)
	if !ok {
		return nil, nil
	}
	return readValue(val)
}

// Crossed reports whether the value crossed a worker boundary en route.
func (a ArgView) Crossed() bool { return v2bool(a.b, fArgCrossed) }

// TC is the producing task's trace context.
func (a ArgView) TC() TraceCtx { return v2tc(a.b, fArgTC) }

// AckView reads an Ack in place.
type AckView struct{ b []byte }

// AsAck returns a typed accessor when the view is an Ack.
func (v *View) AsAck() (AckView, bool) {
	if v == nil || v.tag != tAck {
		return AckView{}, false
	}
	return AckView{v.body}, true
}

// Seq is the acknowledged sequence number.
func (a AckView) Seq() uint64 { return v2u64(a.b, fAckSeq) }

// StatReportView reads a StatReport's header fields in place. The bulky
// slices (counters, histograms, checkpoints, spans) are reached through
// Materialize — consumers that fold them retain them anyway.
type StatReportView struct{ b []byte }

// AsStatReport returns a typed accessor when the view is a StatReport.
func (v *View) AsStatReport() (StatReportView, bool) {
	if v == nil || v.tag != tStatReport {
		return StatReportView{}, false
	}
	return StatReportView{v.body}, true
}

// Ver is the report layout version.
func (s StatReportView) Ver() int32 { return int32(v2u32(s.b, fStVer)) }

// Worker is the reporting worker.
func (s StatReportView) Worker() types.WorkerID {
	return types.WorkerID(int32(v2u32(s.b, fStWorker)))
}

// Deque is the ready-deque depth at report time.
func (s StatReportView) Deque() int32 { return int32(v2u32(s.b, fStDeque)) }

// SpanSeq is the span batch sequence number.
func (s StatReportView) SpanSeq() uint64 { return v2u64(s.b, fStSpanSeq) }

// ClockOffNS is the worker's clock-offset estimate.
func (s StatReportView) ClockOffNS() int64 { return int64(v2u64(s.b, fStOffNS)) }
