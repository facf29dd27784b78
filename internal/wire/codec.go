// Binary wire codec.
//
// Every message in this package is encoded by hand into a length-prefixed
// binary frame — no reflection, no per-message encoder state, no
// intermediate buffers. Only opaque application values (types.Value
// instances outside the small set of common concrete types) fall back to
// gob, because their shape is by definition unknown here.
//
// Frame layout (all integers big-endian):
//
//	offset 0  u32  body length (bytes after this prefix)
//	offset 4  u8   frame version (frameVersion)
//	offset 5  u8   payload type tag (t* constants)
//	offset 6  i64  Envelope.Job
//	offset 14 i32  Envelope.From
//	offset 18 i32  Envelope.To
//	offset 22 u64  Envelope.Seq
//	offset 30 ...  payload body (shape fixed by the type tag)
//
// Every tag has one positional body layout, one encoder (appendPayload)
// and one decoder (readPayload); the zero-copy views of view.go read the
// same bytes in place. A decoder rejects a frame of any other version
// instead of misparsing it. Several frames may be concatenated back to
// back — the UDP transport batches envelopes to one destination into one
// datagram this way — and each is self-delimiting via its length prefix.
//
// Decoding is hardened against truncated and corrupt input: every read is
// bounds-checked, slice counts are validated against the bytes actually
// remaining, value nesting is depth-limited, and Decode returns an error —
// never panics — on garbage.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"phish/internal/types"
)

// frameVersion is the version byte of every frame. Versions 1 to 5 were
// earlier layouts and are rejected.
const frameVersion = 6

// frameHeaderLen is the encoded size of the length prefix plus envelope
// header (version, type tag, job, from, to, seq).
const frameHeaderLen = 4 + 1 + 1 + 8 + 4 + 4 + 8

// maxFrame bounds a single encoded message; large application payloads
// should be split by the application (the paper buffers and batches I/O).
const maxFrame = 16 << 20

// maxValueDepth bounds []Value nesting so a corrupt frame cannot drive the
// recursive value decoder into stack exhaustion (which would panic).
const maxValueDepth = 64

// Payload type tags. The zero tag is invalid so an all-zero frame never
// parses; tags are part of the wire format and must not be renumbered, so
// a retired message keeps its number as a blank placeholder.
const (
	tInvalid byte = iota
	tStealRequest
	tStealReply
	tStealConfirm
	tArg
	tMigrate
	tMigrateAck
	tRegister
	tRegisterReply
	tUnregister
	tUpdate
	_ // 11: Heartbeat, retired at version 4 (a stamped StatReport is the beat)
	tWorkerDown
	tIO
	tShutdown
	tSpawnRoot
	tStayRequest
	tStayReply
	tPause
	_ // 19: PauseAck, retired at version 5 (SnapshotReply carries the counts)
	_ // 20: SnapshotRequest, retired at version 5 (Pause asks for the snapshot)
	tSnapshotReply
	tResume
	tJobRequest
	tJobReply
	tJobSubmit
	tJobSubmitReply
	tJobDone
	_ // 28: JobList, retired at version 4
	_ // 29: JobListReply, retired at version 4
	tAck
	tNilPayload
	tPeerGone
	tStatReport
	_ // 34: DrainRequest, retired at version 6 (a drainer picks its own adopter)
	_ // 35: DrainAck, retired at version 6
	tSuspectSet
	tDrainOrder
)

// Value kind tags inside payloads. A types.Value is one tag byte followed
// by a kind-specific body; vGob wraps any other concrete type in gob.
const (
	vNil byte = iota
	vInt64
	vInt
	vInt32
	vUint64
	vFloat64
	vString
	vBool
	vBytes
	vInt64s
	vFloat64s
	vValues
	vGob byte = 255
)

var (
	errShortFrame   = errors.New("wire: truncated or corrupt frame")
	errFrameVersion = errors.New("wire: wrong frame version")
)

// ---- Pooled frame buffers -------------------------------------------------

// Frame is a pooled encode buffer holding one encoded envelope. Callers
// that finish with a frame (the datagram was written, the ack arrived)
// return it with Free so the steal/synch hot path produces no garbage.
type Frame struct{ buf []byte }

// Bytes returns the encoded frame. The slice is only valid until Free.
func (f *Frame) Bytes() []byte { return f.buf }

// Len returns the encoded size.
func (f *Frame) Len() int { return len(f.buf) }

// Free returns the frame's buffer to the pool. The frame must not be used
// afterwards.
func (f *Frame) Free() {
	if f == nil {
		return
	}
	f.buf = f.buf[:0]
	framePool.Put(f)
}

var framePool = sync.Pool{New: func() any { return &Frame{buf: make([]byte, 0, 512)} }}

// envelopePool recycles decoded envelopes. Decode draws from it; a caller
// that provably finishes with an envelope (the transport consuming an Ack,
// dropping a dedup-suppressed duplicate, a benchmark loop) hands it back
// with Free. Callers that pass envelopes on to consumers simply never
// free them — the pool is an optimization, not an obligation.
var envelopePool = sync.Pool{New: func() any { return new(Envelope) }}

// Free returns a decoded envelope to the pool. The envelope and its
// payload must not be referenced afterwards. Only call this when this
// code path is the envelope's final owner. A zero-copy view payload is
// freed with the envelope, dropping its arena reference.
func (e *Envelope) Free() {
	if e == nil {
		return
	}
	if v, ok := e.Payload.(*View); ok {
		v.Free()
	}
	*e = Envelope{}
	envelopePool.Put(e)
}

// fnIntern deduplicates closure function names. A job invokes the same
// handful of task functions billions of times, so the decode path would
// otherwise allocate a fresh copy of "fib" or "pfold" for every stolen
// closure. Memory stays bounded by two-generation rotation: when the
// current generation fills to half the cap, it becomes the previous
// generation (dropping the one before it) and a fresh map takes over.
// Names still in use are re-promoted on their next decode, so a stream of
// unique names — corrupt, adversarial, or just a very wide job — cycles
// the generations instead of saturating the table and forcing every
// later decode of a live name to allocate.
var fnIntern = struct {
	sync.RWMutex
	cur, old map[string]string
}{cur: make(map[string]string), old: make(map[string]string)}

const fnInternMax = 1024

func internName(b []byte) string {
	fnIntern.RLock()
	s, ok := fnIntern.cur[string(b)] // compiles to a zero-alloc map lookup
	if ok {
		fnIntern.RUnlock()
		return s
	}
	s, ok = fnIntern.old[string(b)]
	fnIntern.RUnlock()
	if !ok {
		s = string(b)
	}
	fnIntern.Lock()
	if len(fnIntern.cur) >= fnInternMax/2 {
		fnIntern.old = fnIntern.cur
		fnIntern.cur = make(map[string]string, 8)
	}
	fnIntern.cur[s] = s
	fnIntern.Unlock()
	return s
}

// EncodeFrame serializes env into a pooled frame. It is the zero-steady-
// state-allocation encode path: once the pool is warm, encoding a
// fixed-shape message allocates nothing.
func EncodeFrame(env *Envelope) (*Frame, error) {
	f := framePool.Get().(*Frame)
	b, err := AppendEncode(f.buf[:0], env)
	if err != nil {
		f.Free()
		return nil, err
	}
	f.buf = b
	return f, nil
}

// Encode serializes env as a length-prefixed binary frame into a fresh
// slice (compatibility path; hot paths use EncodeFrame or AppendEncode).
func Encode(env *Envelope) ([]byte, error) {
	return AppendEncode(nil, env)
}

// AppendEncode appends env's frame to dst and returns the extended slice.
// Frames are self-delimiting, so several may be appended back to back into
// one buffer (the UDP transport batches datagrams this way). A payload
// that is not one of this package's messages is an error.
func AppendEncode(dst []byte, env *Envelope) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	tag := payloadTag(env.Payload)
	dst = append(dst, frameVersion, tag)
	dst = appendI64(dst, int64(env.Job))
	dst = appendI32(dst, int32(env.From))
	dst = appendI32(dst, int32(env.To))
	dst = appendU64(dst, env.Seq)
	dst, err := appendPayload(dst, env.Payload)
	if err != nil {
		return nil, fmt.Errorf("wire: encode %T: %w", env.Payload, err)
	}
	body := len(dst) - start - 4
	if body > maxFrame {
		return nil, fmt.Errorf("wire: frame too large (%d bytes)", body)
	}
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(body))
	return dst, nil
}

// Decode parses one frame produced by Encode/AppendEncode into an
// envelope that owns its payload. It never panics: corrupt or truncated
// frames return an error.
func Decode(frame []byte) (env *Envelope, err error) {
	defer decodePanic(&env, &err)
	e, tag, body, err := parseHeader(frame)
	if err != nil {
		return nil, err
	}
	e.Payload, err = readBody(tag, body)
	return decoded(e, tag, err)
}

// decodePanic is deferred by both decoders. Belt and braces: the readers
// bounds-check everything, but a decoding bug must still surface as an
// error, not kill the process.
func decodePanic(env **Envelope, err *error) {
	if r := recover(); r != nil {
		*env, *err = nil, fmt.Errorf("wire: decode panic: %v", r)
	}
}

// parseHeader checks a frame's length prefix and version byte and reads
// its header into a pooled envelope; body is what follows the header.
func parseHeader(frame []byte) (e *Envelope, tag byte, body []byte, err error) {
	if len(frame) < frameHeaderLen {
		return nil, 0, nil, fmt.Errorf("wire: short frame (%d bytes)", len(frame))
	}
	n := binary.BigEndian.Uint32(frame[:4])
	if int64(n) != int64(len(frame)-4) {
		return nil, 0, nil, fmt.Errorf("wire: frame length mismatch: header %d, body %d", n, len(frame)-4)
	}
	tag = frame[5]
	if frame[4] != frameVersion {
		return nil, 0, nil, fmt.Errorf("%w %d for %s", errFrameVersion, frame[4], tagName(tag))
	}
	e = envelopePool.Get().(*Envelope)
	e.Job = types.JobID(int64(binary.BigEndian.Uint64(frame[6:14])))
	e.From = types.WorkerID(int32(binary.BigEndian.Uint32(frame[14:18])))
	e.To = types.WorkerID(int32(binary.BigEndian.Uint32(frame[18:22])))
	e.Seq = binary.BigEndian.Uint64(frame[22:30])
	return e, tag, frame[frameHeaderLen:], nil
}

// decoded finishes a decode: the envelope on success, or the envelope
// back in the pool and err naming the message.
func decoded(e *Envelope, tag byte, err error) (*Envelope, error) {
	if err != nil {
		e.Free()
		return nil, fmt.Errorf("wire: decode %s: %w", tagName(tag), err)
	}
	return e, nil
}

// ---- Stream framing -------------------------------------------------------

// WriteFrame writes env to w as a length-prefixed frame (stream
// transports: the JobQ's TCP RPC). The encode buffer is pooled, so the
// call produces no per-message garbage.
func WriteFrame(w io.Writer, env *Envelope) error {
	f, err := EncodeFrame(env)
	if err != nil {
		return err
	}
	_, err = w.Write(f.Bytes())
	f.Free()
	return err
}

// FrameReader reads successive frames from a byte stream, reusing one
// internal buffer across calls — the per-connection read path of the JobQ
// RPC without a fresh allocation per request.
type FrameReader struct {
	r   io.Reader
	buf []byte
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, 0, 512)}
}

// Next reads and decodes one frame. The returned envelope owns its data
// (nothing aliases the internal buffer), so it survives the next call.
func (fr *FrameReader) Next() (*Envelope, error) {
	if cap(fr.buf) < 4 {
		fr.buf = make([]byte, 0, 512)
	}
	hdr := fr.buf[:4]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("wire: frame too large (%d bytes)", n)
	}
	total := int(4 + n)
	if cap(fr.buf) < total {
		grown := make([]byte, total)
		copy(grown, hdr)
		fr.buf = grown
	}
	frame := fr.buf[:total]
	if _, err := io.ReadFull(fr.r, frame[4:]); err != nil {
		return nil, err
	}
	return Decode(frame)
}

// ---- Append-style writers -------------------------------------------------

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendI32(b []byte, v int32) []byte   { return appendU32(b, uint32(v)) }
func appendI64(b []byte, v int64) []byte   { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// appendLen writes the presence flag and count of a slice or map, so nil
// and empty round-trip distinctly (tests compare with reflect.DeepEqual).
func appendLen(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	b = append(b, 1)
	return appendU32(b, uint32(n))
}

func appendTaskID(b []byte, t types.TaskID) []byte {
	b = appendI32(b, int32(t.Worker))
	return appendU64(b, t.Seq)
}

func appendCont(b []byte, c types.Continuation) []byte {
	b = appendTaskID(b, c.Task)
	return appendI32(b, c.Slot)
}

func appendValue(b []byte, v types.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, vNil), nil
	case int64:
		return appendI64(append(b, vInt64), x), nil
	case int:
		return appendI64(append(b, vInt), int64(x)), nil
	case int32:
		return appendI32(append(b, vInt32), x), nil
	case uint64:
		return appendU64(append(b, vUint64), x), nil
	case float64:
		return appendF64(append(b, vFloat64), x), nil
	case string:
		return appendStr(append(b, vString), x), nil
	case bool:
		return appendBool(append(b, vBool), x), nil
	case []byte:
		b = appendLen(append(b, vBytes), len(x), x == nil)
		return append(b, x...), nil
	case []int64:
		b = appendLen(append(b, vInt64s), len(x), x == nil)
		for _, e := range x {
			b = appendI64(b, e)
		}
		return b, nil
	case []float64:
		b = appendLen(append(b, vFloat64s), len(x), x == nil)
		for _, e := range x {
			b = appendF64(b, e)
		}
		return b, nil
	case []types.Value:
		return appendValues(append(b, vValues), x)
	default:
		// Opaque application value: gob is the fallback boundary. The
		// concrete type must have been registered via RegisterValue.
		// Address a branch-local copy, not the parameter: &v would make v
		// escape and heap-allocate the interface header on every call,
		// including the scalar cases above that never reach gob.
		var buf bytes.Buffer
		opaque := v
		if err := gob.NewEncoder(&buf).Encode(&opaque); err != nil {
			return nil, err
		}
		b = append(b, vGob)
		b = appendU32(b, uint32(buf.Len()))
		return append(b, buf.Bytes()...), nil
	}
}

func appendValues(b []byte, vs []types.Value) ([]byte, error) {
	b = appendLen(b, len(vs), vs == nil)
	var err error
	for _, v := range vs {
		if b, err = appendValue(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// CopyValue returns v as the receiver of a frame holding it gets it: equal
// to v, nil and empty kept apart, and sharing no memory with it. The slice
// kinds are copied, a []types.Value element by element; an opaque value
// goes through the codec, so it fails as an unregistered type fails to
// encode. A scalar or string cannot be changed in place and comes back as
// it is, in the same interface, which allocates nothing.
func CopyValue(v types.Value) (types.Value, error) {
	switch x := v.(type) {
	case nil, int64, int, int32, uint64, float64, string, bool:
		return v, nil
	case []byte:
		return slices.Clone(x), nil
	case []int64:
		return slices.Clone(x), nil
	case []float64:
		return slices.Clone(x), nil
	case []types.Value:
		out := slices.Clone(x)
		for i, e := range out {
			var err error
			if out[i], err = CopyValue(e); err != nil {
				return nil, err
			}
		}
		return out, nil
	default:
		b, err := appendValue(nil, v)
		if err != nil {
			return nil, err
		}
		return readValue(b)
	}
}

// minClosureLen is the smallest encoded closure: the fixed fields, an empty
// Fn, an absent Ckpt and a nil Args list.
const minClosureLen = clFixed + 4 + 1 + 4 + 1

// AppendClosure writes the one closure layout (view.go reads it in place):
// the fixed fields, then Fn, Ckpt and the byte-length-prefixed Args. It is
// exported because it is also what a victim sizes a steal batch by: the
// bytes one closure adds to a StealReply.
func AppendClosure(b []byte, c *Closure) ([]byte, error) {
	b = appendTaskID(b, c.ID)
	b = appendI32(b, c.Missing)
	b = appendCont(b, c.Cont)
	b = appendBool(b, c.NoSteal)
	b = appendU64(b, c.CkptSeq)
	b = appendTC(b, c.TC)
	b = appendStr(b, c.Fn)
	b = appendBlob(b, c.Ckpt)
	at := len(b)
	b, err := appendValues(append(b, 0, 0, 0, 0), c.Args)
	if err != nil {
		return nil, err
	}
	return patchLen(b, at), nil
}

// patchLen fills the u32 length placeholder at b[at:] with the number of
// bytes appended after it.
func patchLen(b []byte, at int) []byte {
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

func closureIsZero(c *Closure) bool {
	return c.ID == (types.TaskID{}) && c.Fn == "" && c.Args == nil &&
		c.Missing == 0 && c.Cont == (types.Continuation{}) && !c.NoSteal &&
		c.Ckpt == nil && c.CkptSeq == 0 && c.TC == (TraceCtx{})
}

// appendTC writes a trace context: 13 fixed bytes, no allocation, so
// carrying it unconditionally costs the hot steal path nothing but space.
func appendTC(b []byte, tc TraceCtx) []byte {
	b = appendTaskID(b, tc.Parent)
	return append(b, tc.Flags)
}

// spanWireLen is the fixed encoded size of one Span: kind + flags +
// recording worker + three task ids + peer + start + end.
const spanWireLen = 1 + 1 + 4 + 3*12 + 4 + 8 + 8

// appendBlob writes a presence-flagged byte slice (nil and empty are
// distinct, like appendLen elsewhere).
func appendBlob(b, data []byte) []byte {
	b = appendLen(b, len(data), data == nil)
	return append(b, data...)
}

func appendTaskCkpts(b []byte, cs []TaskCkpt) []byte {
	b = appendLen(b, len(cs), cs == nil)
	for _, c := range cs {
		b = appendTaskID(b, c.Task)
		b = appendU64(b, c.Seq)
		b = appendBlob(b, c.Data)
	}
	return b
}

// appendTasks writes the closures and steal records a Migrate or a
// SnapshotReply carries.
func appendTasks(b []byte, cs []Closure, rs []Record) ([]byte, error) {
	b = appendLen(b, len(cs), cs == nil)
	var err error
	for i := range cs {
		if b, err = AppendClosure(b, &cs[i]); err != nil {
			return nil, err
		}
	}
	b = appendLen(b, len(rs), rs == nil)
	for i := range rs {
		r := &rs[i]
		b = appendTaskID(b, r.ID)
		b = appendCont(b, r.RealCont)
		if b, err = AppendClosure(b, &r.Task); err != nil {
			return nil, err
		}
		b = appendI32(b, int32(r.Thief))
		b = appendBool(b, r.Confirmed)
		b = appendI64(b, r.OutstandingNS)
	}
	return b, nil
}

func appendView(b []byte, v MembershipView) []byte {
	b = appendU64(b, v.Epoch)
	b = appendLen(b, len(v.Members), v.Members == nil)
	for _, m := range v.Members {
		b = appendI32(b, int32(m.Worker))
		b = appendStr(b, m.Addr)
		b = appendI32(b, int32(m.HostedBy))
		b = appendI32(b, m.Site)
	}
	return b
}

func appendJobSpec(b []byte, j JobSpec) ([]byte, error) {
	b = appendI64(b, int64(j.ID))
	b = appendStr(b, j.Name)
	b = appendStr(b, j.Program)
	b = appendStr(b, j.RootFn)
	b, err := appendValues(b, j.RootArgs)
	if err != nil {
		return nil, err
	}
	return appendStr(b, j.CHAddr), nil
}

func appendI64s(b []byte, vs []int64) []byte {
	b = appendLen(b, len(vs), vs == nil)
	for _, v := range vs {
		b = appendI64(b, v)
	}
	return b
}

// appendCounts writes a per-worker count map in ascending key order, so a
// frame is a function of its envelope and not of Go's map iteration.
func appendCounts(b []byte, m map[types.WorkerID]int64) []byte {
	b = appendLen(b, len(m), m == nil)
	keys := make([]types.WorkerID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = appendI32(b, int32(k))
		b = appendI64(b, m[k])
	}
	return b
}

// ---- Payload dispatch -----------------------------------------------------

// payloadTag maps a payload to its wire tag; a type that is not one of
// this package's messages gets tInvalid, which nothing encodes.
func payloadTag(p any) byte {
	switch x := p.(type) {
	case *View:
		return x.tag
	case StealRequest:
		return tStealRequest
	case StealReply:
		return tStealReply
	case StealConfirm:
		return tStealConfirm
	case Arg:
		return tArg
	case Migrate:
		return tMigrate
	case MigrateAck:
		return tMigrateAck
	case Register:
		return tRegister
	case RegisterReply:
		return tRegisterReply
	case Unregister:
		return tUnregister
	case Update:
		return tUpdate
	case WorkerDown:
		return tWorkerDown
	case IO:
		return tIO
	case Shutdown:
		return tShutdown
	case SpawnRoot:
		return tSpawnRoot
	case StayRequest:
		return tStayRequest
	case StayReply:
		return tStayReply
	case Pause:
		return tPause
	case SnapshotReply:
		return tSnapshotReply
	case Resume:
		return tResume
	case JobRequest:
		return tJobRequest
	case JobReply:
		return tJobReply
	case JobSubmit:
		return tJobSubmit
	case JobSubmitReply:
		return tJobSubmitReply
	case JobDone:
		return tJobDone
	case Ack:
		return tAck
	case PeerGone:
		return tPeerGone
	case StatReport:
		return tStatReport
	case SuspectSet:
		return tSuspectSet
	case DrainOrder:
		return tDrainOrder
	case nil:
		return tNilPayload
	default:
		return tInvalid
	}
}

var tagNames = map[byte]string{
	tStealRequest: "StealRequest", tStealReply: "StealReply",
	tStealConfirm: "StealConfirm", tArg: "Arg", tMigrate: "Migrate",
	tMigrateAck: "MigrateAck", tRegister: "Register",
	tRegisterReply: "RegisterReply", tUnregister: "Unregister",
	tUpdate: "Update", tWorkerDown: "WorkerDown",
	tIO: "IO", tShutdown: "Shutdown", tSpawnRoot: "SpawnRoot",
	tStayRequest: "StayRequest", tStayReply: "StayReply", tPause: "Pause",
	tSnapshotReply: "SnapshotReply", tResume: "Resume",
	tJobRequest: "JobRequest", tJobReply: "JobReply", tJobSubmit: "JobSubmit",
	tJobSubmitReply: "JobSubmitReply", tJobDone: "JobDone",
	tAck: "Ack", tNilPayload: "nil",
	tPeerGone: "PeerGone", tStatReport: "StatReport",
	tSuspectSet: "SuspectSet", tDrainOrder: "DrainOrder",
}

func tagName(t byte) string {
	if s, ok := tagNames[t]; ok {
		return s
	}
	return fmt.Sprintf("tag(%d)", t)
}

// appendPayload writes a payload's body. A *View re-encodes as the body it
// was received with.
func appendPayload(b []byte, p any) ([]byte, error) {
	switch x := p.(type) {
	case *View:
		return append(b, x.body...), nil
	case StealRequest:
		return appendU16(appendI32(b, int32(x.Thief)), x.Want), nil
	case StealReply:
		b = appendBool(b, x.OK)
		if closureIsZero(&x.Task) && len(x.More) == 0 {
			return appendU16(b, 0), nil
		}
		if len(x.More) >= math.MaxUint16 {
			return nil, fmt.Errorf("wire: steal reply of %d closures", 1+len(x.More))
		}
		b, err := AppendClosure(appendU16(b, uint16(1+len(x.More))), &x.Task)
		for i := 0; i < len(x.More) && err == nil; i++ {
			b, err = AppendClosure(b, &x.More[i])
		}
		return b, err
	case StealConfirm:
		return appendU16(appendTaskID(b, x.Record), x.N), nil
	case Arg:
		b = appendCont(b, x.Cont)
		b = appendBool(b, x.Crossed)
		b = appendTC(b, x.TC)
		at := len(b)
		b, err := appendValue(append(b, 0, 0, 0, 0), x.Val)
		if err != nil {
			return nil, err
		}
		return patchLen(b, at), nil
	case Ack:
		return appendU64(b, x.Seq), nil
	case StatReport:
		b = appendI32(b, x.Ver)
		b = appendI32(b, int32(x.Worker))
		b = appendI32(b, x.Deque)
		b = appendI64(b, x.SendNS)
		b = appendU64(b, x.SpanSeq)
		b = appendI64(b, x.ClockOffNS)
		b = appendI64s(b, x.Counters)
		b = appendLen(b, len(x.Hists), x.Hists == nil)
		for _, h := range x.Hists {
			b = appendI32(b, h.Kind)
			b = appendI64(b, h.Count)
			b = appendI64(b, h.Sum)
			b = appendI64s(b, h.Counts)
		}
		b = appendTaskCkpts(b, x.Ckpts)
		b = appendLen(b, len(x.Spans), x.Spans == nil)
		for _, s := range x.Spans {
			b = append(b, s.Kind, s.Flags)
			b = appendI32(b, int32(s.Worker))
			b = appendTaskID(b, s.Task)
			b = appendTaskID(b, s.Parent)
			b = appendTaskID(b, s.Link)
			b = appendI32(b, int32(s.Peer))
			b = appendI64(b, s.Start)
			b = appendI64(b, s.End)
		}
		return b, nil
	case Migrate:
		return appendTasks(appendI32(b, int32(x.From)), x.Closures, x.Records)
	case MigrateAck:
		return appendI64(b, int64(x.Count)), nil
	case Register:
		b = appendI32(b, int32(x.Worker))
		b = appendStr(b, x.Addr)
		b = appendI32(b, x.Site)
		return appendI64(b, x.SendNS), nil
	case RegisterReply:
		b = appendI32(b, int32(x.Assigned))
		b = appendView(b, x.View)
		return appendI64(b, x.RecvNS), nil
	case Unregister:
		b = appendI32(b, int32(x.Worker))
		b = appendI32(b, int32(x.Reason))
		return appendI32(b, int32(x.MigratedTo)), nil
	case Update:
		return appendView(b, x.View), nil
	case WorkerDown:
		b = appendI32(b, int32(x.Worker))
		b = appendTaskCkpts(b, x.Ckpts)
		return appendTC(b, x.TC), nil
	case IO:
		return appendStr(appendI32(b, int32(x.Worker)), x.Text), nil
	case Shutdown:
		return appendStr(b, x.Reason), nil
	case SpawnRoot:
		return appendValues(appendStr(b, x.Fn), x.Args)
	case StayRequest:
		return appendI32(b, int32(x.Worker)), nil
	case StayReply:
		return appendBool(b, x.Stay), nil
	case Pause:
		return appendU64(b, x.Seq), nil
	case SnapshotReply:
		b = appendI32(appendU64(b, x.Seq), int32(x.Worker))
		b = appendCounts(appendCounts(b, x.SentTo), x.RecvFr)
		return appendTasks(b, x.Closures, x.Records)
	case Resume:
		return appendU64(b, x.Seq), nil
	case JobRequest:
		return appendI64(appendI64(appendI32(b, int32(x.Workstation)), int64(x.Skip)), int64(x.Hold)), nil
	case JobReply:
		return appendJobSpec(appendBool(b, x.OK), x.Job)
	case JobSubmit:
		return appendJobSpec(b, x.Job)
	case JobSubmitReply:
		return appendI64(b, int64(x.ID)), nil
	case JobDone:
		return appendI64(b, int64(x.ID)), nil
	case PeerGone:
		return appendI32(b, int32(x.Worker)), nil
	case SuspectSet:
		b = appendLen(b, len(x.Suspects), x.Suspects == nil)
		for _, s := range x.Suspects {
			b = appendI32(b, int32(s.Worker))
			b = appendI32(b, s.PhiMilli)
			b = appendTaskCkpts(b, s.Ckpts)
		}
		return b, nil
	case DrainOrder:
		return appendStr(b, x.Reason), nil
	case nil:
		return b, nil
	default:
		return nil, errors.New("not a wire message")
	}
}

// ---- Bounds-checked reader ------------------------------------------------

// reader consumes a frame body with a sticky error: after the first
// short/invalid read, every subsequent call is a no-op returning zero
// values, and the caller checks err once at the end.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errShortFrame
	}
}

func (r *reader) rem() int { return len(r.b) - r.off }

// finish reports the sticky error, or errShortFrame when the body was not
// consumed exactly: a well-formed body has no trailing bytes.
func (r *reader) finish() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = errShortFrame
	}
	return r.err
}

// take returns the next n bytes of the body without copying. Callers that
// retain data must copy it (str, blob and friends do).
func (r *reader) take(n int) []byte {
	if r.err != nil || n < 0 || r.rem() < n {
		r.fail()
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *reader) u8() byte {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *reader) u16() uint16 {
	s := r.take(2)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint16(s)
}

func (r *reader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint32(s)
}

func (r *reader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint64(s)
}

func (r *reader) i32() int32             { return int32(r.u32()) }
func (r *reader) i64() int64             { return int64(r.u64()) }
func (r *reader) f64() float64           { return math.Float64frombits(r.u64()) }
func (r *reader) worker() types.WorkerID { return types.WorkerID(r.i32()) }

func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail()
		return false
	}
}

func (r *reader) str() string {
	n := r.u32()
	s := r.take(int(n))
	if s == nil {
		return ""
	}
	return string(s)
}

// internStr reads a string through the function-name intern table —
// used for fields drawn from a small closed set (closure Fn names).
func (r *reader) internStr() string {
	n := r.u32()
	s := r.take(int(n))
	if s == nil {
		return ""
	}
	return internName(s)
}

// count reads a presence flag plus element count for a slice/map whose
// elements occupy at least minElem bytes each; -1 means nil. Validating
// the count against the bytes remaining stops corrupt frames from forcing
// huge allocations.
func (r *reader) count(minElem int) int {
	switch r.u8() {
	case 0:
		return -1
	case 1:
		n := int(r.u32())
		if minElem > 0 && n > r.rem()/minElem {
			r.fail()
			return -1
		}
		return n
	default:
		r.fail()
		return -1
	}
}

// list reads a presence-flagged slice written with appendLen whose
// elements take at least minElem bytes each.
func list[T any](r *reader, minElem int, elem func(*reader) T) []T {
	n := r.count(minElem)
	if n < 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem(r)
	}
	return out
}

func (r *reader) i64s() []int64 { return list(r, 8, (*reader).i64) }

func (r *reader) taskID() types.TaskID {
	return types.TaskID{Worker: r.worker(), Seq: r.u64()}
}

func (r *reader) cont() types.Continuation {
	return types.Continuation{Task: r.taskID(), Slot: r.i32()}
}

func (r *reader) value(depth int) types.Value {
	if depth > maxValueDepth {
		r.fail()
		return nil
	}
	switch tag := r.u8(); tag {
	case vNil:
		return nil
	case vInt64:
		return r.i64()
	case vInt:
		return int(r.i64())
	case vInt32:
		return r.i32()
	case vUint64:
		return r.u64()
	case vFloat64:
		return r.f64()
	case vString:
		return r.str()
	case vBool:
		return r.bool()
	case vBytes:
		n := r.count(1)
		if n < 0 {
			return []byte(nil)
		}
		s := r.take(n)
		if s == nil {
			return []byte(nil)
		}
		out := make([]byte, n)
		copy(out, s)
		return out
	case vInt64s:
		n := r.count(8)
		if n < 0 {
			return []int64(nil)
		}
		out := make([]int64, n)
		for i := range out {
			out[i] = r.i64()
		}
		return out
	case vFloat64s:
		n := r.count(8)
		if n < 0 {
			return []float64(nil)
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = r.f64()
		}
		return out
	case vValues:
		return r.values(depth + 1)
	case vGob:
		n := int(r.u32())
		s := r.take(n)
		if s == nil {
			return nil
		}
		var v types.Value
		if err := gob.NewDecoder(bytes.NewReader(s)).Decode(&v); err != nil {
			if r.err == nil {
				r.err = err
			}
			return nil
		}
		return v
	default:
		r.fail()
		return nil
	}
}

func (r *reader) values(depth int) []types.Value {
	n := r.count(1)
	if n < 0 {
		return nil
	}
	out := make([]types.Value, n)
	for i := range out {
		out[i] = r.value(depth)
	}
	return out
}

// readValue decodes a length-delimited field holding exactly one value.
func readValue(b []byte) (types.Value, error) {
	r := reader{b: b}
	v := r.value(0)
	if err := r.finish(); err != nil {
		return nil, err
	}
	return v, nil
}

// sizedValue reads a u32 byte length and the one value that fills it.
func (r *reader) sizedValue() types.Value {
	v, err := readValue(r.take(int(r.u32())))
	if r.err == nil {
		r.err = err
	}
	return v
}

// sizedValues reads a u32 byte length and the value list that fills it.
func (r *reader) sizedValues() []types.Value {
	s := reader{b: r.take(int(r.u32()))}
	vs := s.values(0)
	if err := s.finish(); r.err == nil {
		r.err = err
	}
	return vs
}

func (r *reader) closure() Closure {
	return Closure{
		ID:      r.taskID(),
		Missing: r.i32(),
		Cont:    r.cont(),
		NoSteal: r.bool(),
		CkptSeq: r.u64(),
		TC:      r.tc(),
		Fn:      r.internStr(),
		Ckpt:    r.blob(),
		Args:    r.sizedValues(),
	}
}

func (r *reader) tc() TraceCtx {
	return TraceCtx{Parent: r.taskID(), Flags: r.u8()}
}

// span reads one fixed-size Span (spanWireLen bytes).
func (r *reader) span() Span {
	return Span{
		Kind:   r.u8(),
		Flags:  r.u8(),
		Worker: r.worker(),
		Task:   r.taskID(),
		Parent: r.taskID(),
		Link:   r.taskID(),
		Peer:   r.worker(),
		Start:  r.i64(),
		End:    r.i64(),
	}
}

// blob reads a presence-flagged byte slice written by appendBlob, copying
// out of the frame buffer so the result survives envelope reuse.
func (r *reader) blob() []byte {
	n := r.count(1)
	if n < 0 {
		return nil
	}
	s := r.take(n)
	if s == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, s)
	return out
}

// taskCkpts reads checkpoint entries of at least taskID + seq + blob flag
// = 21 bytes each.
func (r *reader) taskCkpts() []TaskCkpt { return list(r, 21, (*reader).taskCkpt) }

func (r *reader) taskCkpt() TaskCkpt {
	return TaskCkpt{Task: r.taskID(), Seq: r.u64(), Data: r.blob()}
}

func (r *reader) histState() HistState {
	return HistState{Kind: r.i32(), Count: r.i64(), Sum: r.i64(), Counts: r.i64s()}
}

func (r *reader) record() Record {
	return Record{
		ID:            r.taskID(),
		RealCont:      r.cont(),
		Task:          r.closure(),
		Thief:         r.worker(),
		Confirmed:     r.bool(),
		OutstandingNS: r.i64(),
	}
}

func (r *reader) closures() []Closure { return list(r, 1, (*reader).closure) }
func (r *reader) records() []Record   { return list(r, 1, (*reader).record) }

func (r *reader) view() MembershipView {
	// worker + addr len + hostedBy + site minimum
	return MembershipView{Epoch: r.u64(), Members: list(r, 13, (*reader).member)}
}

func (r *reader) member() MemberInfo {
	return MemberInfo{Worker: r.worker(), Addr: r.str(), HostedBy: r.worker(), Site: r.i32()}
}

func (r *reader) jobSpec() JobSpec {
	return JobSpec{
		ID:       types.JobID(r.i64()),
		Name:     r.str(),
		Program:  r.str(),
		RootFn:   r.str(),
		RootArgs: r.values(0),
		CHAddr:   r.str(),
	}
}

func (r *reader) counts() map[types.WorkerID]int64 {
	n := r.count(12)
	if n < 0 {
		return nil
	}
	out := make(map[types.WorkerID]int64, n)
	for i := 0; i < n; i++ {
		k := r.worker()
		out[k] = r.i64()
	}
	return out
}

// readBody decodes a payload's body, which must be consumed exactly.
func readBody(tag byte, body []byte) (any, error) {
	r := reader{b: body}
	p := readPayload(&r, tag)
	if err := r.finish(); err != nil {
		return nil, err
	}
	return p, nil
}

func readPayload(r *reader, tag byte) any {
	switch tag {
	case tStealRequest:
		return StealRequest{Thief: r.worker(), Want: r.u16()}
	case tStealReply:
		m := StealReply{OK: r.bool()}
		n := int(r.u16())
		if n > 0 {
			m.Task = r.closure()
		}
		if n > 1 {
			if n-1 > r.rem()/minClosureLen {
				r.fail()
				return m
			}
			m.More = make([]Closure, n-1)
			for i := range m.More {
				m.More[i] = r.closure()
			}
		}
		return m
	case tStealConfirm:
		return StealConfirm{Record: r.taskID(), N: r.u16()}
	case tArg:
		return Arg{Cont: r.cont(), Crossed: r.bool(), TC: r.tc(), Val: r.sizedValue()}
	case tAck:
		return Ack{Seq: r.u64()}
	case tStatReport:
		return StatReport{Ver: r.i32(), Worker: r.worker(), Deque: r.i32(),
			SendNS: r.i64(), SpanSeq: r.u64(), ClockOffNS: r.i64(), Counters: r.i64s(),
			// kind + count + sum + the Counts flag
			Hists: list(r, 21, (*reader).histState),
			Ckpts: r.taskCkpts(), Spans: list(r, spanWireLen, (*reader).span)}
	case tMigrate:
		return Migrate{From: r.worker(), Closures: r.closures(), Records: r.records()}
	case tMigrateAck:
		return MigrateAck{Count: int(r.i64())}
	case tRegister:
		return Register{Worker: r.worker(), Addr: r.str(), Site: r.i32(), SendNS: r.i64()}
	case tRegisterReply:
		return RegisterReply{Assigned: r.worker(), View: r.view(), RecvNS: r.i64()}
	case tUnregister:
		return Unregister{Worker: r.worker(), Reason: LeaveReason(r.i32()), MigratedTo: r.worker()}
	case tUpdate:
		return Update{View: r.view()}
	case tWorkerDown:
		return WorkerDown{Worker: r.worker(), Ckpts: r.taskCkpts(), TC: r.tc()}
	case tIO:
		return IO{Worker: r.worker(), Text: r.str()}
	case tShutdown:
		return Shutdown{Reason: r.str()}
	case tSpawnRoot:
		return SpawnRoot{Fn: r.str(), Args: r.values(0)}
	case tStayRequest:
		return StayRequest{Worker: r.worker()}
	case tStayReply:
		return StayReply{Stay: r.bool()}
	case tPause:
		return Pause{Seq: r.u64()}
	case tSnapshotReply:
		return SnapshotReply{Seq: r.u64(), Worker: r.worker(), SentTo: r.counts(), RecvFr: r.counts(),
			Closures: r.closures(), Records: r.records()}
	case tResume:
		return Resume{Seq: r.u64()}
	case tJobRequest:
		return JobRequest{Workstation: types.WorkstationID(r.i32()), Skip: types.JobID(r.i64()), Hold: time.Duration(r.i64())}
	case tJobReply:
		return JobReply{OK: r.bool(), Job: r.jobSpec()}
	case tJobSubmit:
		return JobSubmit{Job: r.jobSpec()}
	case tJobSubmitReply:
		return JobSubmitReply{ID: types.JobID(r.i64())}
	case tJobDone:
		return JobDone{ID: types.JobID(r.i64())}
	case tPeerGone:
		return PeerGone{Worker: r.worker()}
	case tSuspectSet:
		// A suspect entry is at least worker + phi + ckpt flag = 9 bytes.
		return SuspectSet{Suspects: list(r, 9, func(r *reader) SuspectInfo {
			return SuspectInfo{Worker: r.worker(), PhiMilli: r.i32(), Ckpts: r.taskCkpts()}
		})}
	case tDrainOrder:
		return DrainOrder{Reason: r.str()}
	case tNilPayload:
		return nil
	default:
		r.fail()
		return nil
	}
}
