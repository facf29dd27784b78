package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"phish/internal/types"
)

// viewPayloads filters everyPayload down to the messages DecodeView
// leaves in place.
func viewPayloads() []any {
	var out []any
	for _, p := range everyPayload() {
		if viewTag(payloadTag(p)) {
			out = append(out, p)
		}
	}
	return out
}

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
// for every view message, the view accessors and View.Materialize must
// agree exactly with what the materializing Decode produces for the same
// frame, and the view must re-encode to that frame.
func TestViewDifferential(t *testing.T) {
	for _, p := range viewPayloads() {
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
		// A relayed view re-encodes by splicing its body: the same bytes.
		if re, err := Encode(venv); err != nil || !bytes.Equal(re, frame) {
			t.Errorf("%T: re-encoded view differs from its frame (err %v)", p, err)
		}
		venv.Free()
	}
}

// checkAccessors compares every lazy accessor against the decoded struct.
func checkAccessors(t *testing.T, v *View, payload any) {
	t.Helper()
	switch m := payload.(type) {
	case StealRequest:
		sr, ok := v.AsStealRequest()
		if !ok || sr.Thief() != m.Thief || sr.Want() != m.Want {
			t.Errorf("StealRequest view: (%v, %d), want (%v, %d)", sr.Thief(), sr.Want(), m.Thief, m.Want)
		}
	case StealReply:
		rp, ok := v.AsStealReply()
		if !ok || rp.OK() != m.OK {
			t.Errorf("StealReply view: OK mismatch")
		}
		checkClosureView(t, rp.Task(), m.Task)
		want := append([]Closure{m.Task}, m.More...)
		if rp.N() == 0 {
			want = nil
		}
		it := rp.Tasks()
		for i, c := range want {
			cv, ok := it.Next()
			if !ok {
				t.Fatalf("StealReply view: %d closures, want %d", i, len(want))
			}
			checkClosureView(t, cv, c)
		}
		if _, ok := it.Next(); ok || rp.N() != len(want) {
			t.Errorf("StealReply view: N %d, and more closures than the %d decoded", rp.N(), len(want))
		}
	case StealConfirm:
		sc, ok := v.AsStealConfirm()
		if !ok || sc.Record() != m.Record || sc.N() != m.N {
			t.Errorf("StealConfirm view: (%v, %d), want (%v, %d)", sc.Record(), sc.N(), m.Record, m.N)
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
	case Ack:
		a, ok := v.AsAck()
		if !ok || a.Seq() != m.Seq {
			t.Errorf("Ack view mismatch: %#v", m)
		}
	default:
		t.Fatalf("unexpected view payload %T", payload)
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

// TestOldFrameVersionsRejected: a frame from a peer built with an earlier
// layout — version 1 (positional, old closure order), version 2 (the
// field-keyed steal-path bodies), version 3 (the Heartbeat message, and a
// StatReport and JobSpec without and with one field more), version 4 (the
// PauseAck and SnapshotRequest messages, and a SnapshotReply without the
// message counts) or version 5 (the DrainRequest and DrainAck messages) —
// is refused by
// both decoders with errFrameVersion, for a view tag and a cold tag alike,
// instead of being misread as the current layout.
func TestOldFrameVersionsRejected(t *testing.T) {
	for _, tc := range []struct {
		tag  byte
		body []byte
	}{
		// Version 2's StealRequest: field count, then Thief as a 4-byte field.
		{tStealRequest, []byte{1, 1<<2 | 1, 0, 0, 0, 7}},
		// Version 1's Migrate: From, then empty closure and record lists.
		{tMigrate, []byte{0, 0, 0, 3, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0}},
	} {
		for _, ver := range []byte{1, 2, 3, 4, 5} {
			frame := rawFrame(ver, tc.tag, tc.body)
			if _, err := Decode(frame); !errors.Is(err, errFrameVersion) {
				t.Errorf("%s v%d: Decode err = %v, want errFrameVersion", tagName(tc.tag), ver, err)
			}
			if _, err := DecodeView(frame, nil); !errors.Is(err, errFrameVersion) {
				t.Errorf("%s v%d: DecodeView err = %v, want errFrameVersion", tagName(tc.tag), ver, err)
			}
		}
	}
}

// TestViewTruncatedFrames mirrors TestDecodeTruncatedFrames for the view
// decoder: every strict prefix (length prefix patched) must error — every
// field is present in every body, so a prefix always lacks one.
func TestViewTruncatedFrames(t *testing.T) {
	for _, p := range viewPayloads() {
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

// TestViewCorruptFrames flips bytes in valid view frames: DecodeView may
// reject or may yield a different valid view, but neither it, the lazy
// accessors, nor materialization may panic.
func TestViewCorruptFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, p := range viewPayloads() {
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
		_, _ = sr.Thief(), sr.Want()
	}
	if rp, ok := v.AsStealReply(); ok {
		_, _ = rp.OK(), rp.N()
		views := []ClosureView{rp.Task()}
		for it := rp.Tasks(); ; {
			cv, ok := it.Next()
			if !ok {
				break
			}
			views = append(views, cv)
		}
		for _, cv := range views {
			_, _ = cv.ID(), cv.Fn()
			_, _ = cv.AppendArgs(nil)
			_, _ = cv.Missing(), cv.Cont()
			_, _ = cv.Ckpt()
			_, _, _ = cv.NoSteal(), cv.CkptSeq(), cv.TC()
		}
	}
	if sc, ok := v.AsStealConfirm(); ok {
		_, _ = sc.Record(), sc.N()
	}
	if a, ok := v.AsArg(); ok {
		_, _ = a.Val()
		_, _, _ = a.Cont(), a.Crossed(), a.TC()
	}
	if a, ok := v.AsAck(); ok {
		_ = a.Seq()
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
	frame, err := Encode(&Envelope{Payload: StealConfirm{Record: types.TaskID{Worker: 5, Seq: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	env, _ := decodeView(t, frame)
	if got := env.PayloadName(); got != "StealConfirm" {
		t.Errorf("PayloadName = %q, want StealConfirm", got)
	}
	env.Free()
}

// FuzzDecodeView runs the zero-copy decoder against Decode on the same
// input. Any panic in DecodeView, an accessor, materialization, or
// re-encode fails the run; so does a payload that differs from Decode's
// when both accept the frame, a frame Decode accepts and DecodeView
// refuses, and a view that materializes where Decode found a bad value.
// The seeds are every message of everyPayload, a three-closure StealReply
// and a ranged StealConfirm among them, so the closure hop of a batch is
// fuzzed against Decode's closure list from the first run.
func FuzzDecodeView(f *testing.F) {
	for _, p := range everyPayload() {
		frame, err := Encode(&Envelope{Job: 1, From: 2, To: 3, Seq: 4, Payload: p})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, frame := range retiredFrames() {
		f.Add(frame)
	}
	f.Add([]byte{0, 0, 0, 2, 2, 1, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, derr := Decode(data)
		env, err := DecodeView(data, nil)
		if err != nil {
			if derr == nil {
				t.Fatalf("DecodeView refused a frame Decode accepts: %v", err)
			}
			return
		}
		defer env.Free()
		got := env.Payload
		if v, ok := got.(*View); ok {
			exerciseView(v)
			_, _ = Encode(env)
			var merr error
			if got, merr = v.Materialize(); merr != nil {
				if derr == nil {
					t.Fatalf("Materialize failed on a frame Decode accepts: %v", merr)
				}
				return
			}
		}
		if derr != nil {
			t.Fatalf("DecodeView yielded %#v from a frame Decode rejects: %v", got, derr)
		}
		if !reflect.DeepEqual(got, want.Payload) && !sameEncoding(got, want.Payload) {
			t.Fatalf("DecodeView payload %#v, Decode payload %#v", got, want.Payload)
		}
	})
}

// sameEncoding compares two payloads by their encoded bodies — for values
// reflect.DeepEqual never equates, such as a NaN.
func sameEncoding(a, b any) bool {
	x, errX := appendPayload(nil, a)
	y, errY := appendPayload(nil, b)
	return errX == nil && errY == nil && bytes.Equal(x, y)
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
		{Job: 1, From: 3, To: 2, Seq: 1, Payload: StealRequest{Thief: 3, Want: 1}},
		{Job: 1, From: 2, To: 3, Seq: 1, Payload: StealReply{OK: true, Task: leaf}},
		{Job: 1, From: 3, To: 2, Seq: 2, Payload: StealConfirm{Record: leaf.ID, N: 1}},
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
				_, _ = sr.Thief(), sr.Want()
			} else if rp, ok := v.AsStealReply(); ok {
				cl := rp.Task()
				_, _, _, _, _ = rp.OK(), rp.N(), cl.ID(), cl.Fn(), cl.Cont()
				_, _, _, _ = cl.Missing(), cl.NoSteal(), cl.CkptSeq(), cl.TC()
				_, _ = cl.Ckpt()
				if scratch, err = cl.AppendArgs(scratch[:0]); err != nil {
					t.Fatal(err)
				}
			} else if sc, ok := v.AsStealConfirm(); ok {
				_, _ = sc.Record(), sc.N()
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
	if !raceEnabled && got > stealSeqAllocBudget {
		t.Errorf("steal sequence allocates %.1f times per round trip, budget %d", got, stealSeqAllocBudget)
	}
}
