package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"phish/internal/types"
)

// hotPayloads filters everyPayload down to the messages with a v2
// field-keyed shape.
func hotPayloads() []any {
	var out []any
	for _, p := range everyPayload() {
		if v2Tag(payloadTag(p)) && !isView(p) {
			out = append(out, p)
		}
	}
	return out
}

func isView(p any) bool { _, ok := p.(*View); return ok }

func decodeView(t *testing.T, frame []byte) (*Envelope, *View) {
	t.Helper()
	env, err := DecodeView(frame, nil)
	if err != nil {
		t.Fatalf("DecodeView: %v", err)
	}
	v, ok := env.Payload.(*View)
	if !ok {
		t.Fatalf("DecodeView payload = %T, want *View", env.Payload)
	}
	return env, v
}

// TestViewDifferential is the property test of the zero-copy decoder:
// for every hot message, the view accessors and View.Materialize must
// agree exactly with what the materializing Decode produces for the same
// frame.
func TestViewDifferential(t *testing.T) {
	for _, p := range hotPayloads() {
		env := &Envelope{Job: 2, From: -1, To: 5, Seq: 77, Payload: p}
		frame, err := Encode(env)
		if err != nil {
			t.Fatalf("encode %T: %v", p, err)
		}
		want, err := Decode(frame)
		if err != nil {
			t.Fatalf("decode %T: %v", p, err)
		}
		venv, view := decodeView(t, frame)
		if venv.Job != want.Job || venv.From != want.From || venv.To != want.To || venv.Seq != want.Seq {
			t.Fatalf("%T: view envelope header mismatch", p)
		}
		got, err := view.Materialize()
		if err != nil {
			t.Fatalf("%T: materialize: %v", p, err)
		}
		if !reflect.DeepEqual(got, want.Payload) {
			t.Errorf("%T: materialized view != decoded struct\n view   %#v\n decode %#v", p, got, want.Payload)
		}
		checkAccessors(t, view, want.Payload)
		venv.Free()
	}
}

// checkAccessors compares every lazy accessor against the decoded struct.
func checkAccessors(t *testing.T, v *View, payload any) {
	t.Helper()
	switch m := payload.(type) {
	case StealRequest:
		sr, ok := v.AsStealRequest()
		if !ok || sr.Thief() != m.Thief {
			t.Errorf("StealRequest view: Thief = %v, want %v", sr.Thief(), m.Thief)
		}
	case StealReply:
		rp, ok := v.AsStealReply()
		if !ok || rp.OK() != m.OK {
			t.Errorf("StealReply view: OK mismatch")
		}
		checkClosureView(t, rp.Task(), m.Task)
	case StealConfirm:
		sc, ok := v.AsStealConfirm()
		if !ok || sc.Record() != m.Record {
			t.Errorf("StealConfirm view: Record mismatch")
		}
	case Arg:
		a, ok := v.AsArg()
		if !ok {
			t.Fatal("AsArg failed")
		}
		val, err := a.Val()
		if err != nil {
			t.Fatalf("Arg view Val: %v", err)
		}
		if a.Cont() != m.Cont || !reflect.DeepEqual(val, m.Val) ||
			a.Crossed() != m.Crossed || a.TC() != m.TC {
			t.Errorf("Arg view mismatch: %#v", m)
		}
	case Heartbeat:
		// No typed accessor: its one reader materializes it (checked above).
	case Ack:
		a, ok := v.AsAck()
		if !ok || a.Seq() != m.Seq {
			t.Errorf("Ack view mismatch: %#v", m)
		}
	case StatReport:
		s, ok := v.AsStatReport()
		if !ok || s.Ver() != m.Ver || s.Worker() != m.Worker || s.Deque() != m.Deque ||
			s.SpanSeq() != m.SpanSeq || s.ClockOffNS() != m.ClockOffNS {
			t.Errorf("StatReport view header mismatch: %#v", m)
		}
	default:
		t.Fatalf("unexpected hot payload %T", payload)
	}
}

func checkClosureView(t *testing.T, cv ClosureView, c Closure) {
	t.Helper()
	if cv.ID() != c.ID || cv.Fn() != c.Fn || cv.Missing() != c.Missing ||
		cv.Cont() != c.Cont || cv.NoSteal() != c.NoSteal ||
		cv.CkptSeq() != c.CkptSeq || cv.TC() != c.TC {
		t.Errorf("closure view scalar mismatch: %#v", c)
	}
	args, err := cv.AppendArgs(nil)
	if err != nil {
		t.Fatalf("AppendArgs: %v", err)
	}
	if len(args) != len(c.Args) {
		t.Fatalf("AppendArgs: %d args, want %d", len(args), len(c.Args))
	}
	for i := range args {
		if !reflect.DeepEqual(args[i], c.Args[i]) {
			t.Errorf("arg %d: %#v, want %#v", i, args[i], c.Args[i])
		}
	}
	blob, ok := cv.Ckpt()
	if ok != (c.Ckpt != nil) || !bytes.Equal(blob, c.Ckpt) {
		t.Errorf("Ckpt view: (%v, %v), want %v", blob, ok, c.Ckpt)
	}
}

// rawV2Frame assembles a v2 frame by hand — the "newer encoder" a
// cross-version test needs.
func rawV2Frame(tag byte, body []byte) []byte {
	frame := []byte{0, 0, 0, 0, frameVersionV2, tag}
	frame = appendI64(frame, 1)
	frame = appendI32(frame, 2)
	frame = appendI32(frame, 3)
	frame = appendU64(frame, 4)
	frame = append(frame, body...)
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	return frame
}

// TestV2UnknownFieldSkip proves the forward-compatibility contract: a
// frame from a hypothetical newer encoder, carrying field ids this build
// has never heard of (one per wiretype, interleaved with known fields,
// in the top-level body and inside the closure sub-body), decodes without
// error and yields exactly the known fields.
func TestV2UnknownFieldSkip(t *testing.T) {
	// StealRequest with unknown fields around the known Thief.
	body := []byte{4} // field count
	body = append(body, 30<<2|wt8, 0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF)
	body = append(body, fSRqThief<<2|wt4, 0, 0, 0, 7)
	body = append(body, 20<<2|wtLen, 0, 0, 0, 3, 1, 2, 3)
	body = append(body, 9<<2|wt1, 1)
	frame := rawV2Frame(tStealRequest, body)

	env, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode with unknown fields: %v", err)
	}
	if got := env.Payload.(StealRequest).Thief; got != 7 {
		t.Fatalf("Thief = %v, want 7", got)
	}
	venv, view := decodeView(t, frame)
	sr, _ := view.AsStealRequest()
	if sr.Thief() != 7 {
		t.Fatalf("view Thief = %v, want 7", sr.Thief())
	}

	// Re-encoding the view must preserve the unknown fields verbatim — a
	// relay running this build does not strip a newer sender's data.
	reenc, err := Encode(venv)
	if err != nil {
		t.Fatalf("re-encode view: %v", err)
	}
	if !bytes.Equal(reenc, frame) {
		t.Error("re-encoded view dropped or reordered unknown fields")
	}
	venv.Free()

	// Unknown fields inside the nested closure sub-body.
	sub := []byte{3}
	sub = append(sub, 40<<2|wtLen, 0, 0, 0, 2, 8, 9)
	sub = append(sub, fClFn<<2|wtLen, 0, 0, 0, 3)
	sub = append(sub, "fib"...)
	sub = append(sub, 41<<2|wt4, 0, 0, 0, 5)
	body = []byte{2, fSRpOK<<2 | wt1, 1, fSRpTask<<2 | wtLen}
	body = appendU32(body, uint32(len(sub)))
	body = append(body, sub...)
	frame = rawV2Frame(tStealReply, body)

	env, err = Decode(frame)
	if err != nil {
		t.Fatalf("Decode nested unknown fields: %v", err)
	}
	rep := env.Payload.(StealReply)
	if !rep.OK || rep.Task.Fn != "fib" {
		t.Fatalf("nested skip: %#v", rep)
	}
	venv, view = decodeView(t, frame)
	rv, _ := view.AsStealReply()
	if !rv.OK() || rv.Task().Fn() != "fib" {
		t.Fatal("view nested skip failed")
	}
	venv.Free()

	// A known id with the wrong wiretype is an unknown field: both halves
	// of the key are the field's identity.
	body = []byte{1}
	body = append(body, fSRqThief<<2|wt8, 0, 0, 0, 0, 0, 0, 0, 7)
	frame = rawV2Frame(tStealRequest, body)
	env, err = Decode(frame)
	if err != nil {
		t.Fatalf("wrong-wiretype decode: %v", err)
	}
	if got := env.Payload.(StealRequest).Thief; got != 0 {
		t.Fatalf("wrong-wiretype field was read: Thief = %v", got)
	}
}

// TestViewTruncatedFrames mirrors TestDecodeTruncatedFrames for the view
// decoder: every strict prefix (length prefix patched) must error — the
// leading field count makes a prefix-cut field list detectable.
func TestViewTruncatedFrames(t *testing.T) {
	for _, p := range hotPayloads() {
		frame, err := Encode(&Envelope{Job: 1, From: 2, To: 3, Seq: 4, Payload: p})
		if err != nil {
			t.Fatalf("encode %T: %v", p, err)
		}
		step := 1
		if len(frame) > 512 {
			step = len(frame) / 256
		}
		for k := 0; k < len(frame); k += step {
			trunc := make([]byte, k)
			copy(trunc, frame[:k])
			if k >= 4 {
				binary.BigEndian.PutUint32(trunc[:4], uint32(k-4))
			}
			if env, err := DecodeView(trunc, nil); err == nil {
				env.Free()
				t.Fatalf("%T: truncated view frame of %d/%d bytes decoded successfully", p, k, len(frame))
			}
		}
	}
}

// TestViewCorruptFrames flips bytes in valid v2 frames: DecodeView may
// reject or may yield a different valid view, but neither it, the lazy
// accessors, nor materialization may panic.
func TestViewCorruptFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, p := range hotPayloads() {
		frame, err := Encode(&Envelope{Job: 1, From: 2, To: 3, Seq: 4, Payload: p})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 64; trial++ {
			corrupt := make([]byte, len(frame))
			copy(corrupt, frame)
			for flips := 0; flips < 1+rng.Intn(4); flips++ {
				corrupt[4+rng.Intn(len(corrupt)-4)] ^= byte(1 + rng.Intn(255))
			}
			env, err := DecodeView(corrupt, nil)
			if err != nil || env == nil {
				continue
			}
			if v, ok := env.Payload.(*View); ok {
				exerciseView(v)
			}
			env.Free()
		}
	}
}

// exerciseView drives every accessor of every view type; corrupt nested
// content must surface as errors or zero values, never panics.
func exerciseView(v *View) {
	if sr, ok := v.AsStealRequest(); ok {
		_ = sr.Thief()
	}
	if rp, ok := v.AsStealReply(); ok {
		_ = rp.OK()
		cv := rp.Task()
		_, _ = cv.ID(), cv.Fn()
		_, _ = cv.AppendArgs(nil)
		_, _ = cv.Missing(), cv.Cont()
		_, _ = cv.Ckpt()
		_, _, _ = cv.NoSteal(), cv.CkptSeq(), cv.TC()
	}
	if sc, ok := v.AsStealConfirm(); ok {
		_ = sc.Record()
	}
	if a, ok := v.AsArg(); ok {
		_, _ = a.Val()
		_, _, _ = a.Cont(), a.Crossed(), a.TC()
	}
	if a, ok := v.AsAck(); ok {
		_ = a.Seq()
	}
	if s, ok := v.AsStatReport(); ok {
		_, _, _ = s.Ver(), s.Worker(), s.Deque()
		_, _ = s.SpanSeq(), s.ClockOffNS()
	}
	_, _ = v.Materialize()
}

// TestArenaLifecycle pins the refcount contract: one reference per view
// plus the reader's own, data valid until the last release, arena
// recycled only after every holder is done.
func TestArenaLifecycle(t *testing.T) {
	a := NewArena()
	if got := a.refs.Load(); got != 1 {
		t.Fatalf("fresh arena refs = %d", got)
	}
	// Two batched frames sharing the arena buffer, like the UDP read loop.
	buf := a.Bytes()[:0]
	var err error
	if buf, err = AppendEncode(buf, &Envelope{Job: 1, From: 2, To: 3, Seq: 10, Payload: StealRequest{Thief: 7}}); err != nil {
		t.Fatal(err)
	}
	n1 := len(buf)
	if buf, err = AppendEncode(buf, &Envelope{Job: 1, From: 2, To: 3, Seq: 11, Payload: Arg{Val: "shared-arena"}}); err != nil {
		t.Fatal(err)
	}
	e1, err := DecodeView(buf[:n1], a)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := DecodeView(buf[n1:], a)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.refs.Load(); got != 3 {
		t.Fatalf("refs after two views = %d, want 3", got)
	}
	a.Release() // reader's reference: views keep the arena alive
	if got := a.refs.Load(); got != 2 {
		t.Fatalf("refs after reader release = %d, want 2", got)
	}
	sr, _ := e1.Payload.(*View).AsStealRequest()
	if sr.Thief() != 7 {
		t.Fatal("view 1 unreadable after reader release")
	}
	e1.Free()
	if got := a.refs.Load(); got != 1 {
		t.Fatalf("refs after first free = %d, want 1", got)
	}
	// Materializing detaches the envelope from the arena and releases.
	if err := e2.Materialize(); err != nil {
		t.Fatal(err)
	}
	arg, ok := e2.Payload.(Arg)
	if !ok || arg.Val != types.Value("shared-arena") {
		t.Fatalf("materialized payload = %#v", e2.Payload)
	}
	if got := a.refs.Load(); got != 0 {
		t.Fatalf("refs after materialize = %d, want 0", got)
	}
	// Materialize on a struct payload is a no-op; Free must not double-
	// release the arena.
	if err := e2.Materialize(); err != nil {
		t.Fatal(err)
	}
	e2.Free()
}

// TestViewPayloadName: envelopes carrying views must report the real
// message name (trace and log call sites rely on it).
func TestViewPayloadName(t *testing.T) {
	frame, err := Encode(&Envelope{Payload: Heartbeat{Worker: 5}})
	if err != nil {
		t.Fatal(err)
	}
	env, _ := decodeView(t, frame)
	if got := env.PayloadName(); got != "Heartbeat" {
		t.Errorf("PayloadName = %q, want Heartbeat", got)
	}
	env.Free()
}

// FuzzDecodeView extends the fuzz corpus to the zero-copy decoder: any
// panic in DecodeView, an accessor, materialization, or re-encode fails
// the run.
func FuzzDecodeView(f *testing.F) {
	for _, p := range everyPayload() {
		frame, err := Encode(&Envelope{Job: 1, From: 2, To: 3, Seq: 4, Payload: p})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{0, 0, 0, 2, 2, 1, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeView(data, nil)
		if err != nil || env == nil {
			return
		}
		if v, ok := env.Payload.(*View); ok {
			exerciseView(v)
			_, _ = Encode(env)
		}
		env.Free()
	})
}

// stealSequence is the four messages of one steal round trip: request,
// reply carrying the closure, confirm, and the result's Arg. TraceCtx is
// zero (tracing off), as on an untraced job.
func stealSequence() []*Envelope {
	leaf := Closure{
		ID:   types.TaskID{Worker: 2, Seq: 7},
		Fn:   "pfold",
		Args: []types.Value{int64(18), "hphpphhpph", []int64{1, 2, 3, 4, 5, 6, 7, 8}, float64(0.5)},
		Cont: types.Continuation{Task: types.TaskID{Worker: 3, Seq: 9}},
	}
	return []*Envelope{
		{Job: 1, From: 3, To: 2, Seq: 1, Payload: StealRequest{Thief: 3}},
		{Job: 1, From: 2, To: 3, Seq: 1, Payload: StealReply{OK: true, Task: leaf}},
		{Job: 1, From: 3, To: 2, Seq: 2, Payload: StealConfirm{Record: leaf.ID}},
		{Job: 1, From: 3, To: 2, Seq: 3, Payload: Arg{Cont: types.Continuation{Task: leaf.ID}, Val: int64(8)}},
	}
}

// stealSeqAllocBudget is what one steal may allocate on the wire: the
// boxed argument values of the stolen closure and the Arg's result. Frames,
// envelopes and views are pooled and every other field is read in place.
const stealSeqAllocBudget = 5

// TestStealSequenceAllocs is the allocation gate of the steal path: each
// of the four frames is encoded, parsed back as a view, and every accessor
// a worker's ingest reads is read, the closure's args landing in reused
// scratch exactly like adoption onto a pooled closure. A message only pays
// while it costs less than the task it moves; this is where that is held.
func TestStealSequenceAllocs(t *testing.T) {
	seq := stealSequence()
	var scratch []types.Value
	pass := func() {
		for _, env := range seq {
			f, err := EncodeFrame(env)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeView(f.Bytes(), nil)
			if err != nil {
				t.Fatal(err)
			}
			v, ok := dec.Payload.(*View)
			if !ok {
				t.Fatalf("%s decoded as %T, not a view", env.PayloadName(), dec.Payload)
			}
			if sr, ok := v.AsStealRequest(); ok {
				_ = sr.Thief()
			} else if rp, ok := v.AsStealReply(); ok {
				cl := rp.Task()
				_, _, _, _ = rp.OK(), cl.ID(), cl.Fn(), cl.Cont()
				_, _, _, _ = cl.Missing(), cl.NoSteal(), cl.CkptSeq(), cl.TC()
				_, _ = cl.Ckpt()
				if scratch, err = cl.AppendArgs(scratch[:0]); err != nil {
					t.Fatal(err)
				}
			} else if sc, ok := v.AsStealConfirm(); ok {
				_ = sc.Record()
			} else if av, ok := v.AsArg(); ok {
				if _, err := av.Val(); err != nil {
					t.Fatal(err)
				}
				_, _, _ = av.Cont(), av.Crossed(), av.TC()
			}
			dec.Free()
			f.Free()
		}
	}
	got := testing.AllocsPerRun(1000, pass)
	t.Logf("steal sequence: %.1f allocs", got)
	if got > stealSeqAllocBudget {
		t.Errorf("steal sequence allocates %.1f times per round trip, budget %d", got, stealSeqAllocBudget)
	}
}
