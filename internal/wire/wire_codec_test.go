package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"phish/internal/types"
)

// everyPayload returns one populated instance of every message type,
// exercising nil and non-nil slices/maps, empty strings, and nested
// values. Used by the round-trip, truncation, and fuzz-seed tests.
func everyPayload() []any {
	cl := Closure{
		ID:      types.TaskID{Worker: 3, Seq: 17},
		Fn:      "matmul",
		Args:    []types.Value{int64(5), "x", []int64{1, 2}, []float64{0.5}, []byte{9}, true, 3.25, int32(-4), uint64(1 << 60), int(-11)},
		Missing: 1,
		Cont:    types.Continuation{Task: types.TaskID{Worker: 1, Seq: 4}, Slot: 2},
		NoSteal: true,
	}
	emptyArgs := Closure{ID: types.TaskID{Worker: 1, Seq: 1}, Fn: "f", Args: []types.Value{}}
	nilArgs := Closure{ID: types.TaskID{Worker: 1, Seq: 2}, Fn: "g"}
	partial := Closure{ID: types.TaskID{Worker: 1, Seq: 3}, Fn: "join",
		Args: []types.Value{nil, int64(8), nil}, Missing: 2}
	ckpted := Closure{ID: types.TaskID{Worker: 2, Seq: 7}, Fn: "ray",
		Args: []types.Value{int64(1)}, Ckpt: []byte{1, 2, 3, 0, 255}, CkptSeq: 9}
	tc := TraceCtx{Parent: types.TaskID{Worker: 4, Seq: 21}, Flags: FlagSampled}
	traced := Closure{ID: types.TaskID{Worker: 4, Seq: 22}, Fn: "fib",
		Args: []types.Value{int64(12)}, TC: tc}
	rec := Record{ID: types.TaskID{Worker: 3, Seq: 18}, RealCont: cl.Cont, Task: cl, Thief: 7, Confirmed: true,
		OutstandingNS: 2_500_000_000}
	return []any{
		StealRequest{Thief: 7, Want: 16},
		StealRequest{Thief: types.NoWorker},
		StealReply{OK: true, Task: cl},
		StealReply{OK: true, Task: traced},
		StealReply{OK: true, Task: partial, More: []Closure{traced, ckpted}},
		StealReply{},
		StealConfirm{Record: types.TaskID{Worker: 2, Seq: 9}, N: 3},
		Arg{Cont: cl.Cont, Val: int64(42), Crossed: true},
		Arg{Cont: cl.Cont, Val: int64(7), TC: tc},
		Arg{Cont: cl.Cont, Val: []types.Value{int64(1), []types.Value{"nested", nil}}},
		Arg{},
		Migrate{From: 3, Closures: []Closure{cl, emptyArgs, nilArgs, ckpted}, Records: []Record{rec}},
		Migrate{From: 4},
		Migrate{From: 5, Closures: []Closure{}, Records: []Record{}},
		MigrateAck{Count: 2},
		Register{Worker: 5, Addr: "127.0.0.1:9", Site: 3},
		Register{Worker: 6, SendNS: 123456789},
		Register{},
		RegisterReply{Assigned: 5, View: MembershipView{Epoch: 3,
			Members: []MemberInfo{{Worker: 5, Addr: "a", HostedBy: 5, Site: 1}, {Worker: 6, HostedBy: 5}}}},
		RegisterReply{Assigned: types.NoWorker},
		RegisterReply{Assigned: 7, RecvNS: -987654321},
		Unregister{Worker: 5, Reason: LeaveReclaimed, MigratedTo: 6},
		Unregister{Worker: 5, Reason: LeaveCrash, MigratedTo: types.NoWorker},
		Update{View: MembershipView{Epoch: 9}},
		Update{View: MembershipView{Epoch: 10, Members: []MemberInfo{}}},
		WorkerDown{Worker: 4},
		WorkerDown{Worker: 6, TC: tc},
		WorkerDown{Worker: 5, Ckpts: []TaskCkpt{
			{Task: types.TaskID{Worker: 5, Seq: 3}, Seq: 2, Data: []byte{7, 8}},
			{Task: types.TaskID{Worker: 5, Seq: 4}, Seq: 1, Data: []byte{}},
		}},
		IO{Worker: 5, Text: "hello\n"},
		IO{},
		Shutdown{Reason: "done"},
		Shutdown{},
		SpawnRoot{Fn: "fib", Args: []types.Value{int64(30)}},
		SpawnRoot{Fn: "main"},
		StayRequest{Worker: 5},
		StayReply{Stay: true},
		StayReply{},
		Pause{Seq: 12},
		SnapshotReply{Seq: 12, Worker: 3,
			SentTo:   map[types.WorkerID]int64{1: 5, 2: 9},
			RecvFr:   map[types.WorkerID]int64{},
			Closures: []Closure{cl}, Records: []Record{rec}},
		SnapshotReply{Seq: 15, Worker: 4},
		Resume{Seq: 16},
		JobRequest{Workstation: 11, Skip: 6, Hold: 30 * time.Second},
		JobReply{OK: true, Job: JobSpec{ID: 2, Name: "n", Program: "p", RootFn: "r",
			RootArgs: []types.Value{int64(1)}, CHAddr: "x"}},
		JobReply{},
		JobSubmit{Job: JobSpec{Name: "n"}},
		JobSubmitReply{ID: 8},
		JobDone{ID: 8},
		Ack{Seq: 99},
		StatReport{Ver: StatReportVersion, Worker: 5, Deque: 3, SendNS: 1_700_000_000_123_456_789,
			Counters: []int64{10, 20, 0, -1, 1 << 40},
			Hists: []HistState{
				{Kind: 0, Count: 3, Sum: 4500, Counts: []int64{1, 2, 0}},
				{Kind: 4, Count: 0, Sum: 0, Counts: []int64{}},
				{Kind: 2},
			}},
		StatReport{Worker: 6, Counters: []int64{}, Hists: []HistState{}},
		StatReport{Worker: 7, Ckpts: []TaskCkpt{
			{Task: types.TaskID{Worker: 7, Seq: 1}, Seq: 4, Data: []byte{0, 1, 2}}}},
		StatReport{Worker: 8, SpanSeq: 3, ClockOffNS: -1500, Spans: []Span{
			{Kind: SpanExec, Flags: FlagSampled, Worker: 8,
				Task:   types.TaskID{Worker: 8, Seq: 2},
				Parent: types.TaskID{Worker: 4, Seq: 21},
				Link:   types.TaskID{Worker: 4, Seq: 20},
				Peer:   4, Start: 100, End: 900},
			{Kind: SpanStealReq, Worker: 3, Peer: types.NoWorker, Start: -5, End: 5},
		}},
		StatReport{Worker: 9, Spans: []Span{}},
		StatReport{},
		SuspectSet{Suspects: []SuspectInfo{
			{Worker: 4, PhiMilli: 8750, Ckpts: []TaskCkpt{
				{Task: types.TaskID{Worker: 4, Seq: 2}, Seq: 3, Data: []byte{1, 2}}}},
			{Worker: 6, PhiMilli: -1},
		}},
		SuspectSet{},
		SuspectSet{Suspects: []SuspectInfo{}},
		DrainOrder{Reason: "degraded: exec-rate"},
		DrainOrder{},
		PeerGone{Worker: 4},
		nil,
	}
}

// TestRoundTripEveryMessageType asserts encode∘decode = identity for every
// message in the protocol, including nil/empty slice and map distinctions.
func TestRoundTripEveryMessageType(t *testing.T) {
	for _, p := range everyPayload() {
		env := &Envelope{Job: 2, From: -1, To: 5, Seq: 77, Payload: p}
		got := roundTrip(t, env)
		if !reflect.DeepEqual(env, got) {
			t.Errorf("%T: round trip mismatch\n in  %#v\n out %#v", p, env, got)
		}
	}
}

// TestRoundTripMaxSizePayloads pushes matmul-scale data through the codec:
// a megabyte-class matrix block as []float64, a large []byte, and a wide
// []int64 — the data-heavy steal case.
func TestRoundTripMaxSizePayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	block := make([]float64, 128*1024) // 1 MiB of matrix
	for i := range block {
		block[i] = rng.NormFloat64()
	}
	raw := make([]byte, 1<<20)
	rng.Read(raw)
	wide := make([]int64, 64*1024)
	for i := range wide {
		wide[i] = rng.Int63()
	}
	cl := Closure{
		ID:   types.TaskID{Worker: 1, Seq: 1},
		Fn:   "matmul",
		Args: []types.Value{block, raw, wide, int64(128)},
		Cont: types.Continuation{Task: types.TaskID{Worker: 2, Seq: 2}},
	}
	for _, p := range []any{
		Arg{Cont: cl.Cont, Val: block},
		Arg{Cont: cl.Cont, Val: raw},
		StealReply{OK: true, Task: cl},
		Migrate{From: 1, Closures: []Closure{cl, cl}},
	} {
		env := &Envelope{Job: 1, From: 1, To: 2, Seq: 3, Payload: p}
		got := roundTrip(t, env)
		if !reflect.DeepEqual(env, got) {
			t.Errorf("%T: max-size round trip mismatch", p)
		}
	}
	// Beyond maxFrame must refuse to encode, not truncate.
	huge := Arg{Val: make([]byte, maxFrame+1)}
	if _, err := Encode(&Envelope{Payload: huge}); err == nil {
		t.Error("oversized frame encoded without error")
	}
}

// TestDecodeTruncatedFrames feeds every strict prefix of every encoded
// message to Decode — with the length prefix patched to match, so the
// failure must come from the payload parser — and requires an error, never
// a panic, never silent success.
func TestDecodeTruncatedFrames(t *testing.T) {
	for _, p := range everyPayload() {
		env := &Envelope{Job: 1, From: 2, To: 3, Seq: 4, Payload: p}
		frame, err := Encode(env)
		if err != nil {
			t.Fatalf("encode %T: %v", p, err)
		}
		step := 1
		if len(frame) > 512 {
			step = len(frame) / 256 // large frames: sample prefixes
		}
		for k := 0; k < len(frame); k += step {
			trunc := make([]byte, k)
			copy(trunc, frame[:k])
			if k >= 4 {
				binary.BigEndian.PutUint32(trunc[:4], uint32(k-4))
			}
			if _, err := Decode(trunc); err == nil {
				t.Fatalf("%T: truncated frame of %d/%d bytes decoded successfully", p, k, len(frame))
			}
		}
	}
}

// TestDecodeCorruptFrames flips bytes in valid frames; Decode may reject
// or may produce a different valid message, but must never panic.
func TestDecodeCorruptFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range everyPayload() {
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
			_, _ = Decode(corrupt) // must not panic
		}
	}
	// Hostile counts: a slice header claiming 2^32-1 elements must fail
	// fast instead of allocating.
	frame, _ := Encode(&Envelope{Payload: Migrate{From: 1, Closures: []Closure{{Fn: "f"}}}})
	idx := bytes.IndexByte(frame[30:], 1) + 30 // first presence flag
	binary.BigEndian.PutUint32(frame[idx+1:idx+5], 0xFFFFFFFF)
	if _, err := Decode(frame); err == nil {
		t.Error("hostile element count decoded successfully")
	}
}

// TestQuickClosurePayloads drives randomized closures and views through
// the codec via testing/quick.
func TestQuickClosurePayloads(t *testing.T) {
	f := func(w, cw int32, seq, cseq uint64, fn string, slot int32, missing int32,
		ints []int64, floats []float64, blob []byte, s string, nosteal bool) bool {
		args := []types.Value{ints, floats, blob, s}
		if len(blob)%2 == 0 {
			args = append(args, nil, int64(len(blob)))
		}
		cl := Closure{
			ID: types.TaskID{Worker: types.WorkerID(w), Seq: seq}, Fn: fn, Args: args,
			Missing: missing,
			Cont:    types.Continuation{Task: types.TaskID{Worker: types.WorkerID(cw), Seq: cseq}, Slot: slot},
			NoSteal: nosteal,
		}
		env := &Envelope{Job: 1, From: 1, To: 2, Seq: 1, Payload: StealReply{OK: true, Task: cl}}
		b, err := Encode(env)
		if err != nil {
			return false
		}
		out, err := Decode(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(env, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	g := func(epoch uint64, workers []int32, addr string, counts []int64) bool {
		view := MembershipView{Epoch: epoch}
		for i, w := range workers {
			view.Members = append(view.Members, MemberInfo{
				Worker: types.WorkerID(w), Addr: addr, HostedBy: types.WorkerID(w), Site: int32(i)})
		}
		sent := make(map[types.WorkerID]int64)
		for i, c := range counts {
			sent[types.WorkerID(i)] = c
		}
		for _, p := range []any{Update{View: view}, SnapshotReply{Seq: epoch, SentTo: sent}} {
			env := &Envelope{Payload: p}
			b, err := Encode(env)
			if err != nil {
				return false
			}
			out, err := Decode(b)
			if err != nil || !reflect.DeepEqual(env, out) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// appCustomValue is an application-defined argument type that exercises
// the gob-fallback boundary of the codec.
type appCustomValue struct {
	Name string
	Rows []float64
}

// appCustomPayload is a type this package has no message for.
type appCustomPayload struct {
	Kind int64
	Note string
}

func TestGobFallbackBoundary(t *testing.T) {
	RegisterValue(appCustomValue{})
	env := &Envelope{Job: 1, From: 2, To: 3, Seq: 4,
		Payload: Arg{Val: appCustomValue{Name: "m", Rows: []float64{1, 2}}}}
	got := roundTrip(t, env)
	if !reflect.DeepEqual(env, got) {
		t.Errorf("custom value round trip mismatch: %#v vs %#v", env, got)
	}
	if env.PayloadName() != "Arg" {
		t.Errorf("PayloadName = %q", env.PayloadName())
	}
	// gob stops at values: a payload that is not a wire message is refused
	// by the encoder, not smuggled through as an opaque blob.
	if _, err := Encode(&Envelope{Payload: appCustomPayload{Kind: 9, Note: "opaque"}}); err == nil {
		t.Error("encoded a payload type that has no wire shape")
	}
}

// CopyValue gives what a frame's receiver would get: an equal value, nil and
// empty kept apart, that shares no memory with the original. A scalar comes
// back without an allocation; an unregistered opaque type fails as it fails
// to encode.
func TestCopyValueSharesNothing(t *testing.T) {
	RegisterValue(appCustomValue{})
	vals := []types.Value{nil, int64(-3), int(7), int32(-4), uint64(1 << 60), 3.25, "s", true,
		[]byte{9, 8}, []byte{}, []byte(nil), []int64{1, 2}, []int64{}, []int64(nil),
		[]float64{0.5}, []float64(nil),
		[]types.Value{int64(1), []int64{2, 3}, []types.Value{[]byte{4}}}, []types.Value{}, []types.Value(nil),
		appCustomValue{Name: "m", Rows: []float64{1, 2}}}
	for _, v := range vals {
		cp, err := CopyValue(v)
		if err != nil {
			t.Fatalf("CopyValue(%#v): %v", v, err)
		}
		if !reflect.DeepEqual(cp, v) {
			t.Errorf("CopyValue(%#v) = %#v", v, cp)
		}
		// Change every number the original holds; the copy must not move.
		var bump func(types.Value)
		bump = func(v types.Value) {
			switch x := v.(type) {
			case []byte:
				for i := range x {
					x[i]++
				}
			case []int64:
				for i := range x {
					x[i]++
				}
			case []float64:
				for i := range x {
					x[i]++
				}
			case []types.Value:
				for _, e := range x {
					bump(e)
				}
			case appCustomValue:
				bump(x.Rows)
			}
		}
		want, _ := CopyValue(cp)
		bump(v)
		if !reflect.DeepEqual(cp, want) {
			t.Errorf("changing %#v in place changed its copy to %#v", v, cp)
		}
	}
	scalar := types.Value(int64(42))
	if n := testing.AllocsPerRun(100, func() { _, _ = CopyValue(scalar) }); n != 0 {
		t.Errorf("copying a scalar allocates %.0f times", n)
	}
	if _, err := CopyValue(appCustomPayload{Kind: 1}); err == nil {
		t.Error("copied an opaque value of an unregistered type")
	}
}

func TestEnvelopeStringCheap(t *testing.T) {
	env := &Envelope{Job: 2, From: 1, To: 5, Seq: 77, Payload: StealRequest{Thief: 7}}
	if got, want := env.String(), "[job 2 1->5 #77 StealRequest]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestAppendEncodeBatched checks that frames appended back to back into
// one buffer (the UDP batcher's datagram layout) parse individually.
func TestAppendEncodeBatched(t *testing.T) {
	var buf []byte
	envs := []*Envelope{
		{Job: 1, From: 1, To: 2, Seq: 10, Payload: StatReport{Worker: 1, SendNS: 42}},
		{Job: 1, From: 1, To: 2, Seq: 11, Payload: Ack{Seq: 10}},
		{Job: 1, From: 1, To: 2, Seq: 12, Payload: Arg{Val: "batched"}},
	}
	for _, e := range envs {
		var err error
		if buf, err = AppendEncode(buf, e); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range envs {
		n := 4 + binary.BigEndian.Uint32(buf[:4])
		got, err := Decode(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("batched frame mismatch: %v vs %v", got, want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Errorf("%d trailing bytes", len(buf))
	}
}

func TestFrameReaderStream(t *testing.T) {
	var stream bytes.Buffer
	envs := []*Envelope{
		{Job: 1, Payload: JobRequest{Workstation: 3}},
		{Job: 1, Payload: JobReply{OK: true, Job: JobSpec{ID: 1, Name: "j"}}},
		{Job: 1, Payload: JobSubmit{Job: JobSpec{Name: "k", RootArgs: []types.Value{"a", nil}}}},
	}
	for _, e := range envs {
		if err := WriteFrame(&stream, e); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&stream)
	var got []*Envelope
	for range envs {
		e, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	// Envelopes must own their data: compare after all reads so buffer
	// reuse across Next calls would corrupt earlier results.
	for i, want := range envs {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("frame %d mismatch: %v vs %v", i, got[i], want)
		}
	}
	if _, err := fr.Next(); err == nil {
		t.Error("read past end succeeded")
	}
}

// FuzzDecode hammers the binary decoder with mutated frames; any panic
// fails the fuzz run. Seeds cover every message type.
// rawFrame builds a frame by hand: the given version and tag byte, the
// header Job 1, From 2, To 3, Seq 4, then body, with the length patched.
func rawFrame(ver, tag byte, body []byte) []byte {
	frame := []byte{0, 0, 0, 0, ver, tag}
	frame = appendI64(frame, 1)
	frame = appendI32(frame, 2)
	frame = appendI32(frame, 3)
	frame = appendU64(frame, 4)
	frame = append(frame, body...)
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	return frame
}

// retiredFrames are the messages versions 4 to 6 retired, as a peer could
// still send them: Heartbeat, JobList and JobListReply at version 3, PauseAck
// and SnapshotRequest at version 4, DrainRequest and DrainAck at version 5,
// where they were valid, and their tags, now blank, at the current version.
func retiredFrames() [][]byte {
	heartbeat := appendI64(appendI32(nil, 5), 42)
	counts := appendCounts(nil, map[types.WorkerID]int64{1: 5})
	pauseAck := append(appendI32(appendU64(nil, 12), 3), append(counts, counts...)...)
	snapshotRequest := appendU64(nil, 14)
	drainRequest := appendI32(nil, 9)
	drainAck := appendStr(appendI32(appendBool(nil, true), 4), "127.0.0.1:9999")
	return [][]byte{
		rawFrame(3, 11, heartbeat),
		rawFrame(frameVersion, 11, heartbeat),
		rawFrame(3, 28, nil),
		rawFrame(frameVersion, 28, nil),
		rawFrame(frameVersion, 29, appendI32(nil, 0)),
		rawFrame(4, 19, pauseAck),
		rawFrame(frameVersion, 19, pauseAck),
		rawFrame(4, 20, snapshotRequest),
		rawFrame(frameVersion, 20, snapshotRequest),
		rawFrame(5, 34, drainRequest),
		rawFrame(frameVersion, 34, drainRequest),
		rawFrame(5, 35, drainAck),
		rawFrame(frameVersion, 35, drainAck),
	}
}

// TestRetiredTagsRejected: a frame carrying a retired message is refused by
// both decoders, whether it comes at its old version or under its blank tag
// at the current one, rather than read as some other message.
func TestRetiredTagsRejected(t *testing.T) {
	for i, frame := range retiredFrames() {
		if env, err := Decode(frame); err == nil {
			t.Errorf("retired frame %d (v%d tag %d): Decode yielded %#v", i, frame[4], frame[5], env.Payload)
		}
		if env, err := DecodeView(frame, nil); err == nil {
			t.Errorf("retired frame %d (v%d tag %d): DecodeView yielded %#v", i, frame[4], frame[5], env.Payload)
			env.Free()
		}
	}
}

func FuzzDecode(f *testing.F) {
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
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Decode(data)
		if err == nil && env != nil {
			// A frame that decodes must re-encode (identity is checked
			// elsewhere; here we only require no panic on the round).
			_, _ = Encode(env)
		}
	})
}
