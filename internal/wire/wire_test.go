package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"phish/internal/types"
)

// roundTrip encodes and decodes env, failing the test on error.
func roundTrip(t *testing.T, env *Envelope) *Envelope {
	t.Helper()
	b, err := Encode(env)
	if err != nil {
		t.Fatalf("encode %T: %v", env.Payload, err)
	}
	out, err := Decode(b)
	if err != nil {
		t.Fatalf("decode %T: %v", env.Payload, err)
	}
	return out
}

func TestRoundTripEveryPayloadType(t *testing.T) {
	cl := Closure{
		ID:      types.TaskID{Worker: 3, Seq: 17},
		Fn:      "fib",
		Args:    []types.Value{int64(5), "x", []int64{1, 2}},
		Missing: 1,
		Cont:    types.Continuation{Task: types.TaskID{Worker: 1, Seq: 4}, Slot: 2},
		NoSteal: true,
	}
	payloads := []any{
		StealRequest{Thief: 7},
		StealReply{OK: true, Task: cl},
		StealReply{OK: false},
		StealConfirm{Record: types.TaskID{Worker: 2, Seq: 9}},
		Arg{Cont: cl.Cont, Val: int64(42), Crossed: true},
		Migrate{From: 3, Closures: []Closure{cl}, Records: []Record{{
			ID: types.TaskID{Worker: 3, Seq: 18}, RealCont: cl.Cont, Task: cl, Thief: 7, Confirmed: true,
		}}},
		MigrateAck{Count: 2},
		Register{Worker: 5, Addr: "127.0.0.1:9"},
		RegisterReply{Assigned: 5, View: MembershipView{Epoch: 3, Members: []MemberInfo{{Worker: 5, Addr: "a", HostedBy: 5}}}},
		Unregister{Worker: 5, Reason: LeaveReclaimed, MigratedTo: 6},
		Update{View: MembershipView{Epoch: 9}},
		StatReport{Worker: 5, SendNS: 42},
		WorkerDown{Worker: 4},
		IO{Worker: 5, Text: "hello\n"},
		Shutdown{Reason: "done"},
		SpawnRoot{Fn: "fib", Args: []types.Value{int64(30)}},
		StayRequest{Worker: 5},
		StayReply{Stay: true},
		JobRequest{Workstation: 11},
		JobReply{OK: true, Job: JobSpec{ID: 2, Name: "n", Program: "p", RootFn: "r", RootArgs: []types.Value{int64(1)}, CHAddr: "x"}},
		JobSubmit{Job: JobSpec{Name: "n"}},
		JobSubmitReply{ID: 8},
		JobDone{ID: 8},
		Ack{Seq: 99},
	}
	for _, p := range payloads {
		env := &Envelope{Job: 2, From: 1, To: 5, Seq: 77, Payload: p}
		got := roundTrip(t, env)
		if !reflect.DeepEqual(env, got) {
			t.Errorf("%T: round trip mismatch\n in  %#v\n out %#v", p, env, got)
		}
	}
}

func TestRoundTripValueKinds(t *testing.T) {
	vals := []types.Value{
		int64(-7), "str", true, 3.5,
		[]byte{1, 2, 3},
		[]int64{4, 5},
		[]float64{1.5, 2.5},
	}
	for _, v := range vals {
		env := &Envelope{Payload: Arg{Val: v}}
		got := roundTrip(t, env)
		if !reflect.DeepEqual(got.Payload.(Arg).Val, v) {
			t.Errorf("value %T %v: got %v", v, v, got.Payload.(Arg).Val)
		}
	}
}

func TestQuickArgRoundTrip(t *testing.T) {
	f := func(job int64, from, to int32, seq uint64, tw int32, tseq uint64, slot int32, val int64, crossed bool) bool {
		env := &Envelope{
			Job: types.JobID(job), From: types.WorkerID(from), To: types.WorkerID(to), Seq: seq,
			Payload: Arg{
				Cont:    types.Continuation{Task: types.TaskID{Worker: types.WorkerID(tw), Seq: tseq}, Slot: slot},
				Val:     val,
				Crossed: crossed,
			},
		}
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
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte{1, 2}); err == nil {
		t.Error("short frame accepted")
	}
	if _, err := Decode([]byte{0, 0, 0, 9, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		n := rng.Intn(64) + 5
		buf := make([]byte, n)
		rng.Read(buf[4:])
		buf[0], buf[1], buf[2], buf[3] = 0, 0, 0, byte(n-4)
		if _, err := Decode(buf); err == nil {
			t.Fatalf("random garbage decoded successfully: %x", buf)
		}
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	envs := []*Envelope{
		{Job: 1, Payload: StayRequest{Worker: 2}},
		{Job: 1, Payload: IO{Worker: 2, Text: "a"}},
		{Job: 1, Payload: Shutdown{Reason: "x"}},
	}
	for _, e := range envs {
		if err := WriteFrame(&buf, e); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	for _, want := range envs {
		got, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame mismatch: %v vs %v", got, want)
		}
	}
	if _, err := fr.Next(); err == nil {
		t.Error("read from empty stream succeeded")
	}
}

// Span kinds are wire format: each keeps its number and name, new kinds
// are appended, and a leave span's reason survives the StatReport codec.
func TestSpanKindNames(t *testing.T) {
	want := []string{"exec", "steal-req", "steal-grant", "steal-adopt", "ckpt", "drain", "redo",
		"register", "recover", "peer-gone", "preempt", "leave", "retransmit"}
	for k, name := range want {
		if got := SpanKindName(uint8(k)); got != name {
			t.Errorf("kind %d = %q, want %q", k, got, name)
		}
	}
	if SpanRegister != 7 || SpanRetransmit != 12 {
		t.Errorf("control kinds renumbered: register %d, retransmit %d", SpanRegister, SpanRetransmit)
	}
	if got := SpanKindName(uint8(len(want))); got != "span(13)" {
		t.Errorf("unknown kind renders %q", got)
	}
	leave := Span{Kind: SpanLeave, Worker: 3, Peer: 4, Link: types.TaskID{Seq: uint64(LeaveDrained)}, Start: 5, End: 5}
	env := roundTrip(t, &Envelope{From: 3, To: types.ClearinghouseID,
		Payload: StatReport{Ver: StatReportVersion, Worker: 3, SpanSeq: 1, Spans: []Span{leave}}})
	if got := env.Payload.(StatReport).Spans; len(got) != 1 || got[0] != leave ||
		LeaveReason(got[0].Link.Seq) != LeaveDrained {
		t.Errorf("leave span decoded as %+v, want %+v", got, leave)
	}
}
