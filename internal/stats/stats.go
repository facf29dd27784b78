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

// TaskCreated records a new live closure and maintains the high-water mark.
func (c *Counters) TaskCreated() {
	c.TasksSpawned.Add(1)
	c.TaskAdopted()
}

// TaskAdopted records a live closure that arrived from elsewhere (steal or
// migration) rather than being spawned here. The high-water mark has one
// writer — the goroutine that owns the worker's tasks is the only caller
// of TaskCreated and TaskAdopted — so a compare and a store maintain it;
// any goroutine may read it.
func (c *Counters) TaskAdopted() {
	if n := c.TasksInUse.Add(1); n > c.MaxTasksInUse.Load() {
		c.MaxTasksInUse.Store(n)
	}
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
	return Snapshot{
		TasksSpawned:     c.TasksSpawned.Load(),
		TasksExecuted:    c.TasksExecuted.Load(),
		MaxTasksInUse:    c.MaxTasksInUse.Load(),
		TasksStolen:      c.TasksStolen.Load(),
		RemoteSteals:     c.RemoteSteals.Load(),
		StealAttempts:    c.StealAttempts.Load(),
		FailedSteals:     c.FailedSteals.Load(),
		Synchronizations: c.Synchronizations.Load(),
		NonLocalSynchs:   c.NonLocalSynchs.Load(),
		MessagesSent:     c.MessagesSent.Load(),
		MessagesReceived: c.MessagesReceived.Load(),
		TasksMigrated:    c.TasksMigrated.Load(),
		TasksRedone:      c.TasksRedone.Load(),
		Retransmits:      c.Retransmits.Load(),
		PeerGoneReports:  c.PeerGoneReports.Load(),
		ReRegistrations:  c.ReRegistrations.Load(),
		JournalRecords:   c.JournalRecords.Load(),
		RedoBatches:      c.RedoBatches.Load(),
		TasksPreempted:   c.TasksPreempted.Load(),
		CkptSaves:        c.CkptSaves.Load(),
		CkptResumes:      c.CkptResumes.Load(),
		SpeculativeRedos: c.SpeculativeRedos.Load(),
		FalseEvictions:   c.FalseEvictions.Load(),
	}
}

// JobTotals aggregates worker snapshots the way the paper's Table 2 does:
// counts are summed, except MaxTasksInUse, which is the maximum over
// workers ("the size of the largest working set of any participant"),
// MailboxDepthMax, likewise the deepest inbox of any participant, and
// ExecTime, which is the maximum (the job runs as long as its slowest
// participant).
func JobTotals(workers []Snapshot) Snapshot {
	var t Snapshot
	t.Worker = len(workers)
	for _, w := range workers {
		t.TasksSpawned += w.TasksSpawned
		t.TasksExecuted += w.TasksExecuted
		t.TasksStolen += w.TasksStolen
		t.RemoteSteals += w.RemoteSteals
		t.StealAttempts += w.StealAttempts
		t.FailedSteals += w.FailedSteals
		t.Synchronizations += w.Synchronizations
		t.NonLocalSynchs += w.NonLocalSynchs
		t.MessagesSent += w.MessagesSent
		t.MessagesReceived += w.MessagesReceived
		t.TasksMigrated += w.TasksMigrated
		t.TasksRedone += w.TasksRedone
		t.Retransmits += w.Retransmits
		t.PeerGoneReports += w.PeerGoneReports
		t.ReRegistrations += w.ReRegistrations
		t.JournalRecords += w.JournalRecords
		t.RedoBatches += w.RedoBatches
		t.TasksPreempted += w.TasksPreempted
		t.CkptSaves += w.CkptSaves
		t.CkptResumes += w.CkptResumes
		t.SpeculativeRedos += w.SpeculativeRedos
		t.FalseEvictions += w.FalseEvictions
		t.Orphans += w.Orphans
		if w.MaxTasksInUse > t.MaxTasksInUse {
			t.MaxTasksInUse = w.MaxTasksInUse
		}
		if w.MailboxDepthMax > t.MailboxDepthMax {
			t.MailboxDepthMax = w.MailboxDepthMax
		}
		if w.ExecTime > t.ExecTime {
			t.ExecTime = w.ExecTime
		}
		if w.WallTime > t.WallTime {
			t.WallTime = w.WallTime
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

// OrderedNames lists every Snapshot counter in wire order. The order is
// append-only: telemetry reports carry counters as a positional []int64, so
// renumbering would silently misattribute values between versions. Names
// double as Prometheus metric names (a "_total" suffix marks a counter;
// everything else is a gauge).
var OrderedNames = []string{
	"tasks_spawned_total",
	"tasks_executed_total",
	"max_tasks_in_use",
	"tasks_stolen_total",
	"remote_steals_total",
	"steal_attempts_total",
	"steal_failures_total",
	"synchronizations_total",
	"nonlocal_synchs_total",
	"messages_sent_total",
	"messages_received_total",
	"tasks_migrated_total",
	"tasks_redone_total",
	"retransmits_total",
	"peer_gone_total",
	"reregistrations_total",
	"journal_records_total",
	"redo_batches_total",
	"orphan_results_total",
	"exec_time_ns",
	"wall_time_ns",
	"tasks_preempted_total",
	"ckpt_saves_total",
	"ckpt_resumes_total",
	"speculative_redo_total",
	"false_evictions_total",
	"mailbox_depth_max",
}

// Ordered flattens the snapshot into the positional form of OrderedNames.
func (s Snapshot) Ordered() []int64 {
	return []int64{
		s.TasksSpawned,
		s.TasksExecuted,
		s.MaxTasksInUse,
		s.TasksStolen,
		s.RemoteSteals,
		s.StealAttempts,
		s.FailedSteals,
		s.Synchronizations,
		s.NonLocalSynchs,
		s.MessagesSent,
		s.MessagesReceived,
		s.TasksMigrated,
		s.TasksRedone,
		s.Retransmits,
		s.PeerGoneReports,
		s.ReRegistrations,
		s.JournalRecords,
		s.RedoBatches,
		s.Orphans,
		int64(s.ExecTime),
		int64(s.WallTime),
		s.TasksPreempted,
		s.CkptSaves,
		s.CkptResumes,
		s.SpeculativeRedos,
		s.FalseEvictions,
		s.MailboxDepthMax,
	}
}

// FromOrdered rebuilds a Snapshot from the positional form. Short slices
// (an older sender) leave the tail zero; extra entries (a newer sender) are
// ignored — both directions stay decodable across versions.
func FromOrdered(vals []int64) Snapshot {
	at := func(i int) int64 {
		if i < len(vals) {
			return vals[i]
		}
		return 0
	}
	return Snapshot{
		TasksSpawned:     at(0),
		TasksExecuted:    at(1),
		MaxTasksInUse:    at(2),
		TasksStolen:      at(3),
		RemoteSteals:     at(4),
		StealAttempts:    at(5),
		FailedSteals:     at(6),
		Synchronizations: at(7),
		NonLocalSynchs:   at(8),
		MessagesSent:     at(9),
		MessagesReceived: at(10),
		TasksMigrated:    at(11),
		TasksRedone:      at(12),
		Retransmits:      at(13),
		PeerGoneReports:  at(14),
		ReRegistrations:  at(15),
		JournalRecords:   at(16),
		RedoBatches:      at(17),
		Orphans:          at(18),
		ExecTime:         time.Duration(at(19)),
		WallTime:         time.Duration(at(20)),
		TasksPreempted:   at(21),
		CkptSaves:        at(22),
		CkptResumes:      at(23),
		SpeculativeRedos: at(24),
		FalseEvictions:   at(25),
		MailboxDepthMax:  at(26),
	}
}
