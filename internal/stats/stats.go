// Package stats collects the per-worker scheduling and message counters
// that the paper reports in Table 2: tasks executed, maximum tasks in use
// (the working-set high-water mark), tasks stolen, synchronizations,
// non-local synchronizations, and messages sent.
//
// Counters are updated with atomics: the hot-path updates come from the
// worker's scheduler goroutine, but transports and the clearinghouse update
// a few counters from their own goroutines.
package stats

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Counters is one worker's statistics. The zero value is ready for use.
type Counters struct {
	// TasksSpawned counts closures created by this worker.
	TasksSpawned atomic.Int64
	// TasksExecuted counts closures whose function body this worker ran.
	TasksExecuted atomic.Int64
	// TasksInUse is the current number of live closures on this worker:
	// ready, waiting for arguments, or executing.
	TasksInUse atomic.Int64
	// MaxTasksInUse is the high-water mark of TasksInUse — the paper's
	// measure of the working-set size that LIFO execution keeps small.
	MaxTasksInUse atomic.Int64
	// TasksStolen counts successful steals performed by this worker as
	// the thief.
	TasksStolen atomic.Int64
	// RemoteSteals counts steals whose victim was at a different site
	// (across a slow network cut; see the site-aware policy).
	RemoteSteals atomic.Int64
	// StealAttempts counts steal requests sent (successful or not).
	StealAttempts atomic.Int64
	// FailedSteals counts steal requests that found an empty victim.
	FailedSteals atomic.Int64
	// Synchronizations counts argument/result deliveries into join slots.
	Synchronizations atomic.Int64
	// NonLocalSynchs counts synchronizations whose producer and consumer
	// were on different workers and therefore required a message.
	NonLocalSynchs atomic.Int64
	// MessagesSent counts application-level messages this worker sent on
	// the network (steal traffic, non-local synchs, migrations,
	// clearinghouse traffic).
	MessagesSent atomic.Int64
	// MessagesReceived counts messages delivered to this worker.
	MessagesReceived atomic.Int64
	// TasksMigrated counts closures shipped away when the worker's
	// workstation was reclaimed by its owner.
	TasksMigrated atomic.Int64
	// TasksRedone counts closures re-executed by the fault-tolerance
	// machinery after a crash.
	TasksRedone atomic.Int64
	// Retransmits counts frames re-sent by the transport after an ack
	// deadline expired.
	Retransmits atomic.Int64
	// PeerGoneReports counts peers this participant declared unreachable
	// after exhausting retransmits.
	PeerGoneReports atomic.Int64
	// ReRegistrations counts registration retries sent after losing the
	// clearinghouse (the re-register loop, not the initial register).
	ReRegistrations atomic.Int64
	// JournalRecords counts control-plane records appended to the
	// clearinghouse journal.
	JournalRecords atomic.Int64
	// RedoBatches counts crash/departure events that produced at least one
	// redone task (TasksRedone counts the tasks themselves).
	RedoBatches atomic.Int64
	// TasksPreempted counts executing tasks that yielded a checkpoint and
	// requeued because the worker was draining or being reclaimed.
	TasksPreempted atomic.Int64
	// CkptSaves counts checkpoint blobs accepted from yielding tasks.
	CkptSaves atomic.Int64
	// CkptResumes counts task executions that started from a checkpoint
	// blob instead of from scratch.
	CkptResumes atomic.Int64
	// SpeculativeRedos counts steal-record tasks re-dispatched while their
	// thief was merely suspect (not declared dead): the task was overdue
	// past K× its function's p99 exec time, so a second copy was started
	// from the last published checkpoint. Seq/dedup keeps results
	// exactly-once; this counts the extra dispatches.
	SpeculativeRedos atomic.Int64
	// FalseEvictions counts workers the failure detector declared dead
	// that later proved alive (a heartbeat arrived after eviction) — the
	// detector's false-positive count, maintained by the clearinghouse.
	FalseEvictions atomic.Int64
}

// TaskRetired records that a live closure finished or left this worker.
func (c *Counters) TaskRetired() { c.TasksInUse.Add(-1) }

// Snapshot is an immutable copy of a Counters, plus the execution time.
type Snapshot struct {
	Worker           int
	TasksSpawned     int64
	TasksExecuted    int64
	MaxTasksInUse    int64
	TasksStolen      int64
	RemoteSteals     int64
	StealAttempts    int64
	FailedSteals     int64
	Synchronizations int64
	NonLocalSynchs   int64
	MessagesSent     int64
	MessagesReceived int64
	TasksMigrated    int64
	TasksRedone      int64
	Retransmits      int64
	PeerGoneReports  int64
	ReRegistrations  int64
	JournalRecords   int64
	RedoBatches      int64
	TasksPreempted   int64
	CkptSaves        int64
	CkptResumes      int64
	SpeculativeRedos int64
	FalseEvictions   int64
	// Orphans counts results dropped because their consumer task no
	// longer exists (expected after crash recovery, zero otherwise).
	Orphans int64
	// MailboxDepthMax is the high-water mark of the participant's inbox:
	// the most envelopes that were ever queued for it at once. The inbox
	// is unbounded, so this is the number a future cap would be sized by.
	MailboxDepthMax int64
	// ExecTime is the participant's execution time in the paper's sense:
	// how long its (possibly simulated) workstation was busy with the
	// job. On Linux it is the worker thread's CPU time, so participants
	// time-sharing one host core are still accounted as if each had its
	// own processor; elsewhere it falls back to WallTime.
	ExecTime time.Duration
	// WallTime is the participant's wall-clock lifetime in the job.
	WallTime time.Duration
}

// Snapshot captures the current counter values.
func (c *Counters) Snapshot() Snapshot {
	var s Snapshot
	for _, d := range table {
		if d.live != nil {
			*d.field(&s) = d.live(c).Load()
		}
	}
	return s
}

// JobTotals aggregates worker snapshots the way the paper's Table 2 does:
// counts are summed, except MaxTasksInUse, which is the maximum over
// workers ("the size of the largest working set of any participant"),
// MailboxDepthMax, likewise the deepest inbox of any participant, and
// ExecTime, which is the maximum (the job runs as long as its slowest
// participant), as is WallTime.
func JobTotals(workers []Snapshot) Snapshot {
	var t Snapshot
	t.Worker = len(workers)
	for i := range workers {
		for _, d := range table {
			v, tot := *d.field(&workers[i]), d.field(&t)
			switch {
			case !d.max:
				*tot += v
			case v > *tot:
				*tot = v
			}
		}
	}
	return t
}

// String renders the snapshot in the layout of the paper's Table 2, with a
// fault-path suffix appended only when any fault counter fired (fault-free
// runs keep the paper's exact layout).
func (s Snapshot) String() string {
	out := fmt.Sprintf(
		"tasks executed %d | max tasks in use %d | tasks stolen %d | synchronizations %d | non-local synchs %d | messages sent %d | time %v",
		s.TasksExecuted, s.MaxTasksInUse, s.TasksStolen,
		s.Synchronizations, s.NonLocalSynchs, s.MessagesSent, s.ExecTime.Round(time.Millisecond))
	if s.Retransmits != 0 || s.PeerGoneReports != 0 || s.ReRegistrations != 0 ||
		s.JournalRecords != 0 || s.RedoBatches != 0 {
		out += fmt.Sprintf(
			" | retransmits %d | peer-gone %d | re-registrations %d | journal records %d | redo batches %d",
			s.Retransmits, s.PeerGoneReports, s.ReRegistrations, s.JournalRecords, s.RedoBatches)
	}
	return out
}

// counter is one row of the counter table: a Snapshot value, its name on
// the wire and in exposition, how a job totals it, and the Counters atomic
// that Snapshot reads it from (nil for the values a participant fills in
// itself: orphans, mailbox depth and the two times).
type counter struct {
	name  string
	max   bool // Table 2 takes the maximum over workers, not the sum
	field func(*Snapshot) *int64
	live  func(*Counters) *atomic.Int64
}

// table lists every Snapshot value once, in wire order. The order is
// append-only: telemetry reports carry counters as a positional []int64, so
// renumbering would silently misattribute values between versions. Names
// double as Prometheus metric names (a "_total" suffix marks a counter;
// everything else is a gauge).
var table = [...]counter{
	{"tasks_spawned_total", false, func(s *Snapshot) *int64 { return &s.TasksSpawned }, func(c *Counters) *atomic.Int64 { return &c.TasksSpawned }},
	{"tasks_executed_total", false, func(s *Snapshot) *int64 { return &s.TasksExecuted }, func(c *Counters) *atomic.Int64 { return &c.TasksExecuted }},
	{"max_tasks_in_use", true, func(s *Snapshot) *int64 { return &s.MaxTasksInUse }, func(c *Counters) *atomic.Int64 { return &c.MaxTasksInUse }},
	{"tasks_stolen_total", false, func(s *Snapshot) *int64 { return &s.TasksStolen }, func(c *Counters) *atomic.Int64 { return &c.TasksStolen }},
	{"remote_steals_total", false, func(s *Snapshot) *int64 { return &s.RemoteSteals }, func(c *Counters) *atomic.Int64 { return &c.RemoteSteals }},
	{"steal_attempts_total", false, func(s *Snapshot) *int64 { return &s.StealAttempts }, func(c *Counters) *atomic.Int64 { return &c.StealAttempts }},
	{"steal_failures_total", false, func(s *Snapshot) *int64 { return &s.FailedSteals }, func(c *Counters) *atomic.Int64 { return &c.FailedSteals }},
	{"synchronizations_total", false, func(s *Snapshot) *int64 { return &s.Synchronizations }, func(c *Counters) *atomic.Int64 { return &c.Synchronizations }},
	{"nonlocal_synchs_total", false, func(s *Snapshot) *int64 { return &s.NonLocalSynchs }, func(c *Counters) *atomic.Int64 { return &c.NonLocalSynchs }},
	{"messages_sent_total", false, func(s *Snapshot) *int64 { return &s.MessagesSent }, func(c *Counters) *atomic.Int64 { return &c.MessagesSent }},
	{"messages_received_total", false, func(s *Snapshot) *int64 { return &s.MessagesReceived }, func(c *Counters) *atomic.Int64 { return &c.MessagesReceived }},
	{"tasks_migrated_total", false, func(s *Snapshot) *int64 { return &s.TasksMigrated }, func(c *Counters) *atomic.Int64 { return &c.TasksMigrated }},
	{"tasks_redone_total", false, func(s *Snapshot) *int64 { return &s.TasksRedone }, func(c *Counters) *atomic.Int64 { return &c.TasksRedone }},
	{"retransmits_total", false, func(s *Snapshot) *int64 { return &s.Retransmits }, func(c *Counters) *atomic.Int64 { return &c.Retransmits }},
	{"peer_gone_total", false, func(s *Snapshot) *int64 { return &s.PeerGoneReports }, func(c *Counters) *atomic.Int64 { return &c.PeerGoneReports }},
	{"reregistrations_total", false, func(s *Snapshot) *int64 { return &s.ReRegistrations }, func(c *Counters) *atomic.Int64 { return &c.ReRegistrations }},
	{"journal_records_total", false, func(s *Snapshot) *int64 { return &s.JournalRecords }, func(c *Counters) *atomic.Int64 { return &c.JournalRecords }},
	{"redo_batches_total", false, func(s *Snapshot) *int64 { return &s.RedoBatches }, func(c *Counters) *atomic.Int64 { return &c.RedoBatches }},
	{"orphan_results_total", false, func(s *Snapshot) *int64 { return &s.Orphans }, nil},
	{"exec_time_ns", true, func(s *Snapshot) *int64 { return (*int64)(&s.ExecTime) }, nil},
	{"wall_time_ns", true, func(s *Snapshot) *int64 { return (*int64)(&s.WallTime) }, nil},
	{"tasks_preempted_total", false, func(s *Snapshot) *int64 { return &s.TasksPreempted }, func(c *Counters) *atomic.Int64 { return &c.TasksPreempted }},
	{"ckpt_saves_total", false, func(s *Snapshot) *int64 { return &s.CkptSaves }, func(c *Counters) *atomic.Int64 { return &c.CkptSaves }},
	{"ckpt_resumes_total", false, func(s *Snapshot) *int64 { return &s.CkptResumes }, func(c *Counters) *atomic.Int64 { return &c.CkptResumes }},
	{"speculative_redo_total", false, func(s *Snapshot) *int64 { return &s.SpeculativeRedos }, func(c *Counters) *atomic.Int64 { return &c.SpeculativeRedos }},
	{"false_evictions_total", false, func(s *Snapshot) *int64 { return &s.FalseEvictions }, func(c *Counters) *atomic.Int64 { return &c.FalseEvictions }},
	{"mailbox_depth_max", true, func(s *Snapshot) *int64 { return &s.MailboxDepthMax }, nil},
}

// OrderedNames lists the table's names in wire order.
var OrderedNames = func() []string {
	names := make([]string, len(table))
	for i, d := range table {
		names[i] = d.name
	}
	return names
}()

// Ordered flattens the snapshot into the positional form of OrderedNames.
func (s Snapshot) Ordered() []int64 {
	vals := make([]int64, len(table))
	for i, d := range table {
		vals[i] = *d.field(&s)
	}
	return vals
}

// FromOrdered rebuilds a Snapshot from the positional form. Short slices
// (an older sender) leave the tail zero; extra entries (a newer sender) are
// ignored — both directions stay decodable across versions.
func FromOrdered(vals []int64) Snapshot {
	var s Snapshot
	for i, d := range table {
		if i < len(vals) {
			*d.field(&s) = vals[i]
		}
	}
	return s
}
