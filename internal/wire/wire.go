// Package wire defines every message that crosses between Phish processes —
// workers, clearinghouses, the PhishJobQ, and PhishJobManagers — together
// with a hand-rolled, length-prefixed binary codec (see codec.go) for
// sending them over byte streams and datagrams. Opaque application values
// fall back to gob; everything fixed-shape is encoded by hand.
//
// The paper implements all communication as split-phase operations on top
// of UDP/IP; the message vocabulary here mirrors the protocol the paper
// describes: steal requests and replies (micro scheduler), argument/result
// deliveries (synchronizations), worker register/unregister and periodic
// membership updates (clearinghouse), buffered I/O, job requests and
// assignments (macro scheduler), and migration/fault-recovery traffic.
package wire

import (
	"encoding/gob"
	"fmt"
	"strconv"
	"time"

	"phish/internal/types"
)

// Envelope wraps one payload with routing and reliability metadata.
type Envelope struct {
	// Job is the parallel job this message belongs to.
	Job types.JobID
	// From and To are worker identities within the job. The
	// clearinghouse is types.ClearinghouseID.
	From, To types.WorkerID
	// Seq is a per-sender sequence number used by unreliable transports
	// for acknowledgment and duplicate suppression.
	Seq uint64
	// Payload is one of the message structs below.
	Payload any
}

// String renders the envelope header and payload type name without fmt —
// it appears in trace and log call sites whose arguments are evaluated
// even when the sink is disabled, so it must stay cheap.
func (e *Envelope) String() string {
	b := make([]byte, 0, 48)
	b = append(b, "[job "...)
	b = strconv.AppendInt(b, int64(e.Job), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(e.From), 10)
	b = append(b, "->"...)
	b = strconv.AppendInt(b, int64(e.To), 10)
	b = append(b, " #"...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, ' ')
	b = append(b, e.PayloadName()...)
	b = append(b, ']')
	return string(b)
}

// PayloadName returns the payload's message name (e.g. "StealRequest")
// without reflection or formatting; a payload that is not a wire message
// reports as "tag(0)".
func (e *Envelope) PayloadName() string { return tagName(payloadTag(e.Payload)) }

// TraceCtx is the compact trace context that crosses worker boundaries
// with scheduler messages: the parent span's id plus flag bits. A span's
// own id is the task id of the activity it describes (task ids are
// job-unique), and the job id rides in the frame header, so the context
// itself is a fixed 13 bytes — cheap enough to carry unconditionally.
// The zero TraceCtx means "not sampled".
type TraceCtx struct {
	Parent types.TaskID
	Flags  uint8
}

// FlagSampled marks a context as sampled: workers record spans for the
// activity and its descendants. The head of the DAG (the root task)
// makes the sampling decision once; everything downstream inherits it
// through propagated contexts.
const FlagSampled uint8 = 1 << 0

// Sampled reports whether spans should be recorded under this context.
func (tc TraceCtx) Sampled() bool { return tc.Flags&FlagSampled != 0 }

// Span kinds. Like payload tags these are part of the StatReport wire
// format: append new kinds, never renumber.
const (
	// SpanExec is one execution of a task function body.
	SpanExec uint8 = iota
	// SpanStealReq is the thief side of a steal: request sent → reply
	// received (success or failure).
	SpanStealReq
	// SpanStealGrant is the victim side: popping the tail task and
	// shipping it, plus creating the steal record.
	SpanStealGrant
	// SpanStealAdopt is the thief adopting a stolen task into its deque.
	SpanStealAdopt
	// SpanCkpt is one checkpoint publish (Yield accepting a blob).
	SpanCkpt
	// SpanDrain is a planned-drain handoff: drain decision → state
	// shipped to the adopter.
	SpanDrain
	// SpanRedo is a crash redo: re-enqueueing a recorded task after its
	// thief died.
	SpanRedo

	// Control spans, from SpanRegister on: what the worker's control plane
	// did, on the same timeline. The DAG analysis shows them but leaves
	// them out of its accounting.

	// SpanRegister is the worker's registration: Register sent → reply.
	SpanRegister
	// SpanRecover is a clearinghouse outage as the worker saw it: the
	// clearinghouse lost → it answers again.
	SpanRecover
	// SpanPeerGone is the transport giving up on Peer (retransmits
	// exhausted).
	SpanPeerGone
	// SpanPreempt is a body vacating the processor at a Yield.
	SpanPreempt
	// SpanLeave is the worker unregistering: Peer is the adopter its state
	// went to (NoWorker if none) and Link.Seq the LeaveReason.
	SpanLeave
	// SpanRetransmit is one frame re-sent to Peer.
	SpanRetransmit
	spanKindCount
)

var spanKindNames = [spanKindCount]string{
	"exec", "steal-req", "steal-grant", "steal-adopt", "ckpt", "drain", "redo",
	"register", "recover", "peer-gone", "preempt", "leave", "retransmit",
}

// SpanKindName renders a span kind for timelines and exports.
func SpanKindName(k uint8) string {
	if k < spanKindCount {
		return spanKindNames[k]
	}
	return fmt.Sprintf("span(%d)", k)
}

// Span is one recorded scheduler activity, shipped from workers to the
// clearinghouse collector inside StatReports. Task identifies the span
// (for SpanExec it is the executed task's id; for steal legs the steal
// record's id); Parent is the spawning/requesting span from the
// propagated TraceCtx; Link is a related task — the continuation a
// SpanExec feeds (a join edge of the DAG), or zero. Start and End are
// nanosecond timestamps on the recording worker's local clock; the
// collector shifts them onto the cluster timeline using that worker's
// estimated clock offset.
type Span struct {
	Kind  uint8
	Flags uint8
	// Worker is the participant that recorded the span (timestamps are
	// on its clock until the collector aligns them).
	Worker types.WorkerID
	Task   types.TaskID
	Parent types.TaskID
	Link   types.TaskID
	Peer   types.WorkerID
	Start  int64
	End    int64
}

// Closure is the wire representation of a task: the name of its function,
// its (possibly partially filled) argument slots, the number of arguments
// still missing, and the continuation its result feeds. It crosses the
// wire when a task is stolen, migrated, or redone after a crash.
//
// A nil entry in Args is an unfilled slot; applications must not use nil
// as an argument value.
type Closure struct {
	ID      types.TaskID
	Fn      string
	Args    []types.Value
	Missing int32
	Cont    types.Continuation
	// NoSteal pins the closure to its current worker. The runtime sets it
	// on a job's root task so the fault-tolerance machinery always knows
	// where the root lives.
	NoSteal bool
	// Ckpt is the task's latest checkpoint blob (nil for tasks that never
	// yielded one). It travels with the closure on steal, migration, and
	// redo so execution resumes from the blob instead of from zero.
	Ckpt []byte
	// CkptSeq orders checkpoint blobs for the same task: higher wins.
	CkptSeq uint64
	// TC is the task's trace context; it travels with the closure on
	// steal, migration, and redo so the executing worker records spans
	// under the right parent and sampling decision.
	TC TraceCtx
}

// TaskCkpt is one task's latest checkpoint blob as published to the
// clearinghouse: latest-wins per (task, seq), size-capped at the source.
type TaskCkpt struct {
	Task types.TaskID
	Seq  uint64
	Data []byte
}

// Record is the wire form of a steal record — the redundant state a victim
// keeps about a task it handed to a thief so that the work can be redone
// if the thief crashes. Records migrate with their owner.
type Record struct {
	ID        types.TaskID
	RealCont  types.Continuation
	Task      Closure
	Thief     types.WorkerID
	Confirmed bool
	// OutstandingNS is how long the steal had been outstanding when the
	// record was serialized. Carried as a relative duration (clock-skew
	// free) so an adopter can keep the speculation deadline running across
	// migrations; restarting the clock on every hop would let a churning
	// fleet defer speculative redo indefinitely.
	OutstandingNS int64
}

// ---- Micro-level (intra-job) payloads ----

// StealRequest asks the destination worker (the victim) for the tasks at
// the tail of its ready deque. Want is how many closures the thief would
// take in one reply (zero reads as one); the victim may give fewer.
// Deliberately a worker id and a count, no trace context: the steal trace
// context travels in the reply's Closure.TC instead (the victim's grant
// span is keyed by the steal record, not by this frame).
type StealRequest struct {
	Thief types.WorkerID
	Want  uint16
}

// StealReply answers a StealRequest. OK is false when the victim's deque
// was empty (a failed steal attempt). A granted batch is Task followed by
// More, oldest first: the order the closures left the victim's steal end.
// Each closure's continuation targets its own steal record, and the
// records' ids are consecutive (see StealConfirm).
type StealReply struct {
	OK   bool
	Task Closure
	More []Closure
}

// MaxStealBatchBytes bounds the closures one StealReply carries: half a UDP
// datagram, which leaves the rest for the frames the reply shares a
// datagram with. A victim stops adding closures to a batch at this budget;
// the first closure goes whatever its size.
const MaxStealBatchBytes = 32 << 10

// Arg delivers a value into argument slot Cont.Slot of task Cont.Task — a
// synchronization. When it crosses workers it is a non-local
// synchronization and costs a message. Crossed records that the value has
// crossed a worker boundary somewhere en route (possibly via a steal-record
// forward), so the final delivery is counted as non-local exactly once.
type Arg struct {
	Cont    types.Continuation
	Val     types.Value
	Crossed bool
	// TC names the producing task (Parent) so a sampled result delivery
	// extends the trace across the synchronization edge.
	TC TraceCtx
}

// Migrate carries a terminating worker's live closures and steal records
// to an adoptive worker (owner reclaimed the workstation, or the worker is
// retiring for lack of work while still holding records).
type Migrate struct {
	From     types.WorkerID
	Closures []Closure
	Records  []Record
}

// MigrateAck confirms adoption of migrated closures so the source may exit.
type MigrateAck struct {
	Count int
}

// ---- Clearinghouse payloads ----

// Register announces a new worker to the job's clearinghouse. Site names
// the network neighborhood the worker lives in (machine room, building,
// campus link...); the site-aware steal policy prefers victims on the same
// side of slow network cuts.
type Register struct {
	Worker types.WorkerID
	Addr   string // transport address, empty for in-memory fabrics
	Site   int32
	// SendNS is the worker's local clock when the Register was sent, used
	// with RegisterReply.RecvNS and the measured round trip for
	// clock-offset estimation (zero when the worker does not trace).
	SendNS int64
}

// RegisterReply assigns the worker its identity (when it asked with
// NoWorker) and carries the initial membership view.
type RegisterReply struct {
	Assigned types.WorkerID
	View     MembershipView
	// RecvNS is the clearinghouse's clock when it processed the Register;
	// with the register round trip this yields the NTP-style offset
	// estimate offset = RecvNS - (send+recv_local)/2.
	RecvNS int64
}

// Unregister announces that a worker is leaving the job. MigratedTo names
// the adopter of its tasks (NoWorker when it had none); the clearinghouse
// turns this into a tombstone so results still route to the adopter.
type Unregister struct {
	Worker     types.WorkerID
	Reason     LeaveReason
	MigratedTo types.WorkerID
}

// StealConfirm tells a victim that the thief received a stolen batch, so
// the victim's steal records are backed by live copies. It names N records
// minted back to back: Record and the N-1 ids that follow it on the same
// worker. A record whose thief departs before confirming is redone locally
// — the reply was lost in flight.
type StealConfirm struct {
	Record types.TaskID
	N      uint16
}

// LeaveReason says why a worker left; the macro scheduler reacts
// differently to each.
type LeaveReason int32

const (
	// LeaveJobDone: the job terminated.
	LeaveJobDone LeaveReason = iota
	// LeaveReclaimed: the workstation's owner returned.
	LeaveReclaimed
	// LeaveNoWork: parallelism shrank; steal attempts kept failing.
	LeaveNoWork
	// LeaveCrash: synthesized by the clearinghouse when heartbeats stop.
	LeaveCrash
	// LeaveDrained: the clearinghouse ordered a drain because the worker
	// graded as degraded. The workstation's manager should sit out a
	// cooldown before offering the machine again — a sick machine that
	// rejoins moments after its drain defeats the drain.
	LeaveDrained
)

func (r LeaveReason) String() string {
	switch r {
	case LeaveJobDone:
		return "job-done"
	case LeaveReclaimed:
		return "reclaimed"
	case LeaveNoWork:
		return "no-work"
	case LeaveCrash:
		return "crash"
	case LeaveDrained:
		return "drained"
	default:
		return fmt.Sprintf("LeaveReason(%d)", int32(r))
	}
}

// MemberInfo describes one participant in membership updates.
type MemberInfo struct {
	Worker types.WorkerID
	Addr   string
	// HostedBy is the worker now hosting this worker's tasks; normally it
	// equals Worker, but after a migration the departed worker's task IDs
	// are served by the adopter.
	HostedBy types.WorkerID
	// Site is the worker's network neighborhood (see Register.Site).
	Site int32
}

// MembershipView is the clearinghouse's view of a job's participants,
// pushed periodically ("once every 2 minutes" in the paper) and on change.
type MembershipView struct {
	Epoch   uint64
	Members []MemberInfo
}

// Update carries a fresh MembershipView to a worker.
type Update struct {
	View MembershipView
}

// StatReportVersion is the current StatReport layout version. Receivers
// keep decoding older (or newer) reports: counters are positional and
// append-only (see stats.OrderedNames), and unknown histogram kinds are
// carried through untouched.
const StatReportVersion = 1

// HistState is the cumulative state of one latency histogram in a
// StatReport: per-bucket counts (the last entry is the overflow bucket),
// total count, and sum of samples in nanoseconds. Bucket bounds are not
// sent — Kind identifies a histogram whose bounds both ends know.
type HistState struct {
	Kind   int32
	Count  int64
	Sum    int64
	Counts []int64
}

// StatReport is one worker's periodic update to the clearinghouse, and its
// heartbeat: cumulative counters in stats.OrderedNames order, the current
// ready-deque depth, and cumulative histogram states. Values are cumulative
// rather than deltas so the report is idempotent — duplication, loss, and
// worker restarts all resolve to "latest report wins" at the clearinghouse.
// An unstamped report (SendNS zero) is sent unreliably, like Ack: the next
// one supersedes it.
type StatReport struct {
	Ver    int32
	Worker types.WorkerID
	Deque  int32 // ready-deque depth at report time
	// SendNS is the worker's wall clock when it sent the first report of a
	// heartbeat tick, and zero on every other report. Only a stamped report
	// is a beat: it feeds the failure detector's inter-arrival history and
	// bounds a traced worker's clock offset by its one-way delay.
	SendNS   int64
	Counters []int64
	Hists    []HistState
	// Ckpts carries the worker's in-flight task checkpoints (latest-wins
	// per task, size-capped). The clearinghouse journals them so a crash
	// redo can resume from the blob.
	Ckpts []TaskCkpt
	// SpanSeq numbers the span batch below: the collector folds a batch
	// only when SpanSeq advances past the last one it saw from this
	// worker, so retransmitted or reordered reports never duplicate
	// spans ("latest-batch" framing, same idempotence contract as the
	// cumulative counters above).
	SpanSeq uint64
	// ClockOffNS is the worker's current estimate of (clearinghouse
	// clock - local clock); the collector adds it to span timestamps to
	// merge all workers onto one cluster timeline.
	ClockOffNS int64
	// Spans are the trace spans completed since the previous report.
	Spans []Span
}

// WorkerDown notifies workers that a participant crashed so they can redo
// work recorded in their steal logs and drop orphaned consumers. Ckpts
// carries the dead worker's last published checkpoints; a worker holding a
// steal record for one of these tasks redoes it from the blob.
type WorkerDown struct {
	Worker types.WorkerID
	Ckpts  []TaskCkpt
	// TC carries the sampling decision to crash-redo paths: a survivor
	// redoing a recorded task for the dead worker inherits it even when
	// its own record predates sampling.
	TC TraceCtx
}

// SuspectInfo is one graded-suspicion entry in a SuspectSet broadcast:
// a live worker whose phi score or health telemetry has degraded past the
// suspect band. PhiMilli is the phi-accrual suspicion score ×1000 (ints
// only on the wire). Ckpts carries the suspect's last published task
// checkpoints so a victim speculating on an overdue stolen task can resume
// from the freshest blob instead of the one that traveled with the steal.
type SuspectInfo struct {
	Worker   types.WorkerID
	PhiMilli int32
	Ckpts    []TaskCkpt
}

// SuspectSet tells workers which participants the clearinghouse currently
// grades as suspect (slow-not-dead). Thieves deprioritize suspects as
// steal victims, and victims holding steal records against a suspect arm
// speculative re-dispatch. The set is a full replacement: a worker absent
// from the latest set is no longer suspect (entries also decay locally, so
// a lost final broadcast cannot blacklist a worker forever).
type SuspectSet struct {
	Suspects []SuspectInfo
}

// DrainOrder is a clearinghouse-initiated planned drain: the receiving
// worker should leave the way an owner-return reclaim does, shipping its
// deque and checkpoints to a healthy peer it picks from its own membership
// view, because the clearinghouse grades it persistently degraded. The
// worker obeys at its own pace — an order to a worker that just recovered
// is merely a wasted migration, never a correctness problem.
type DrainOrder struct {
	Reason string
}

// IO carries buffered application output to the clearinghouse ("a user
// need only watch the Clearinghouse to see job output").
type IO struct {
	Worker types.WorkerID
	Text   string
}

// Shutdown tells workers the job is complete (the root result arrived at
// the clearinghouse).
type Shutdown struct {
	Reason string
}

// SpawnRoot instructs a worker to spawn the job's root task. The
// clearinghouse sends it to the first registrant — and again to a later
// registrant if every worker hosting the root's lineage has crashed, which
// is how a fully lost job restarts.
type SpawnRoot struct {
	Fn   string
	Args []types.Value
}

// Pause asks a worker to stop executing and stealing (it keeps processing
// messages): the one round of a checkpoint. A worker answers every Pause
// with a SnapshotReply carrying its state and its per-peer message counts;
// the coordinator repeats the round until the global send/receive matrix
// balances and matches the previous round's, and keeps that round's state.
type Pause struct {
	Seq uint64
}

// SnapshotReply answers Pause: a paused worker's per-peer message counts
// (worker-to-worker traffic only; clearinghouse traffic does not carry task
// state) and a non-destructive dump of its scheduler state in the
// representation a migration uses. The worker keeps its state and stays
// paused.
type SnapshotReply struct {
	Seq      uint64
	Worker   types.WorkerID
	SentTo   map[types.WorkerID]int64
	RecvFr   map[types.WorkerID]int64
	Closures []Closure
	Records  []Record
}

// Resume ends a pause.
type Resume struct {
	Seq uint64
}

// StayRequest asks the clearinghouse for permission to retire for lack of
// work; the clearinghouse refuses when the requester is the last worker of
// an unfinished job.
type StayRequest struct {
	Worker types.WorkerID
}

// StayReply answers StayRequest. Stay=true means keep participating.
type StayReply struct {
	Stay bool
}

// ---- Macro-level (PhishJobQ) payloads ----

// JobSpec describes a submitted parallel job.
type JobSpec struct {
	ID       types.JobID
	Name     string
	Program  string // registered program name all workers must know
	RootFn   string // task function of the root task
	RootArgs []types.Value
	CHAddr   string // clearinghouse address
}

// JobRequest is an idle workstation's plea for work. Hold > 0 asks the
// PhishJobQ to hold the request that long while the pool has no job other
// than Skip, and to answer the moment one is submitted; Hold 0 is the
// paper's poll, answered at once. Skip is the job the workstation's last
// worker finished (0: none).
type JobRequest struct {
	Workstation types.WorkstationID
	Skip        types.JobID
	Hold        time.Duration
}

// JobReply answers JobRequest. OK is false when the job pool is empty.
type JobReply struct {
	OK  bool
	Job JobSpec
}

// JobSubmit places a job in the PhishJobQ's pool.
type JobSubmit struct {
	Job JobSpec
}

// JobSubmitReply returns the assigned job ID.
type JobSubmitReply struct {
	ID types.JobID
}

// JobDone removes a finished job from the pool.
type JobDone struct {
	ID types.JobID
}

// Ack acknowledges receipt of sequence Seq from the peer; used only by
// unreliable transports.
type Ack struct {
	Seq uint64
}

// PeerGone is synthesized locally by a transport when it exhausts
// retransmits to a peer: the peer is unreachable and every undelivered
// frame to it has been abandoned. It is delivered to the owner's own
// mailbox, never sent across the network. A worker receiving it treats the
// peer as crashed (or, for the clearinghouse, enters the re-register
// loop); the clearinghouse declares the worker crashed.
type PeerGone struct {
	Worker types.WorkerID
}

// The common Value concrete types are registered with gob for the records
// that hold a types.Value (checkpoints, the journal's root result); no
// message travels as gob, so no payload type is registered.
func init() {
	for _, v := range []any{
		int64(0), int(0), int32(0), uint64(0), float64(0), "", true,
		[]byte(nil), []int64(nil), []float64(nil), []types.Value(nil),
	} {
		gob.Register(v)
	}
}

// RegisterValue registers an application-defined concrete type that will
// be carried as a task argument or result across the wire. Such values are
// encoded through the gob fallback of the binary codec.
func RegisterValue(v any) { gob.Register(v) }
