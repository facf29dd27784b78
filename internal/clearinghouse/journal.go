package clearinghouse

import (
	"fmt"
	"os"
	"sync"
	"time"

	"phish/internal/phishnet"
	"phish/internal/stats"
	"phish/internal/telemetry"
	"phish/internal/trace"
	"phish/internal/types"
	"phish/internal/wal"
	"phish/internal/wire"
)

// The journal is the clearinghouse's crash-survivable memory: an
// append-only log (internal/wal framing, gob bodies — the same
// serialization as checkpoint.go) holding the job spec, a full
// control-plane snapshot after every membership change, the application
// output, and the root result. The control-plane state is tiny — member
// table, root location, epoch, any undistributed restore bundles — so
// snapshotting it whole on each (rare) change is cheaper and far less
// error-prone than replaying semantic events.
//
// Recovery (ReplayJournal + NewFromRecovery) rebuilds the clearinghouse
// from the last intact records; a torn tail from the crash is discarded by
// the wal layer. Workers are NOT assumed alive: each recovered member gets
// lastHeard = now and the heartbeat machinery re-establishes the truth —
// survivors re-register (their transport noticed the outage) and keep
// heartbeating, while a worker that died during the outage times out and
// is declared crashed, triggering the ordinary redo path.

// Journal record kinds.
const (
	jSpec = iota + 1
	jState
	jResult
	jIO
	jCkpt
)

// journalMember is one row of the persisted membership table.
type journalMember struct {
	Info     wire.MemberInfo
	Departed bool
}

// journalRecord is the single wal record type; Kind selects which fields
// are meaningful.
type journalRecord struct {
	Kind int

	// jSpec
	Spec wire.JobSpec

	// jState — the full control-plane snapshot after a membership change.
	Members     []journalMember
	RootHost    types.WorkerID
	ArmRoot     bool
	Epoch       uint64
	Restore     []wire.SnapshotReply
	RestoreRoot types.WorkerID

	// jResult
	Result types.Value

	// jIO
	Text string

	// jCkpt — one worker's latest published checkpoint set (replaces any
	// earlier jCkpt for the same worker on replay).
	CkptWorker types.WorkerID
	Ckpts      []wire.TaskCkpt
}

// Journal appends clearinghouse state changes to a file. Writes are
// best-effort with a sticky error: a failing disk degrades durability, not
// the running job.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	err error

	// Telemetry, both nil until instrument is called: records appended
	// (stats.JournalRecords) and append+fsync latency (hist).
	stats *stats.Counters
	hist  *telemetry.Histogram
}

// instrument attaches the owning clearinghouse's counters and WAL-append
// latency histogram. Call before the journal sees traffic; either argument
// may be nil.
func (j *Journal) instrument(c *stats.Counters, h *telemetry.Histogram) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stats = c
	j.hist = h
}

// OpenJournal opens (creating if needed) the journal at path for
// appending. The same path may be reopened after a crash; records from
// every incarnation replay as one log.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("clearinghouse: open journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// Err returns the sticky write error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// append writes one record; sync additionally flushes it to stable
// storage (used for records that must survive — state and result).
func (j *Journal) append(rec *journalRecord, sync bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil || j.err != nil {
		return
	}
	var t0 time.Time
	if j.hist != nil {
		t0 = time.Now()
	}
	if err := wal.Append(j.f, rec); err != nil {
		j.err = err
		return
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			j.err = err
			return
		}
	}
	if j.hist != nil {
		j.hist.ObserveSince(t0)
	}
	if j.stats != nil {
		j.stats.JournalRecords.Add(1)
	}
}

// RecoveredJob is the state rebuilt from a journal by ReplayJournal.
type RecoveredJob struct {
	Spec        wire.JobSpec
	Members     []journalMember
	RootHost    types.WorkerID
	ArmRoot     bool
	Epoch       uint64
	Restore     []wire.SnapshotReply
	RestoreRoot types.WorkerID
	Done        bool
	Result      types.Value
	Output      string
	IOLines     int64
	// Ckpts holds the latest journaled checkpoint set per worker,
	// restricted to workers live in the recovered membership: a jCkpt can
	// postdate its worker's Unregister (a final StatReport flushed racing
	// the departure), and resurrecting such a blob would advertise work
	// that already migrated or completed elsewhere.
	Ckpts map[types.WorkerID][]wire.TaskCkpt
}

// ReplayJournal reads the journal at path and folds its records into the
// latest recovered state. It fails only if the file cannot be read or
// holds no job spec (nothing to recover).
func ReplayJournal(path string) (*RecoveredJob, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("clearinghouse: replay journal: %w", err)
	}
	defer f.Close()
	rec := &RecoveredJob{RootHost: types.NoWorker, RestoreRoot: types.NoWorker, ArmRoot: true}
	haveSpec := false
	err = wal.Replay(f, func(r *journalRecord) error {
		switch r.Kind {
		case jSpec:
			rec.Spec = r.Spec
			haveSpec = true
		case jState:
			rec.Members = r.Members
			rec.RootHost = r.RootHost
			rec.ArmRoot = r.ArmRoot
			rec.Epoch = r.Epoch
			rec.Restore = r.Restore
			rec.RestoreRoot = r.RestoreRoot
		case jResult:
			rec.Done = true
			rec.Result = r.Result
		case jIO:
			rec.Output += r.Text
			rec.IOLines++
		case jCkpt:
			if rec.Ckpts == nil {
				rec.Ckpts = make(map[types.WorkerID][]wire.TaskCkpt)
			}
			rec.Ckpts[r.CkptWorker] = r.Ckpts
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !haveSpec {
		return nil, fmt.Errorf("clearinghouse: journal %s holds no job spec", path)
	}
	// Discard checkpoints of workers absent from (or departed in) the
	// recovered membership: a worker that unregistered cleanly handed its
	// work off, so a checkpoint journaled after its departure is stale by
	// construction.
	if len(rec.Ckpts) > 0 {
		live := make(map[types.WorkerID]bool, len(rec.Members))
		for _, jm := range rec.Members {
			if !jm.Departed {
				live[jm.Info.Worker] = true
			}
		}
		for id := range rec.Ckpts {
			if !live[id] {
				delete(rec.Ckpts, id)
			}
		}
	}
	return rec, nil
}

// NewFromRecovery builds a clearinghouse that resumes the journaled job.
// The epoch is bumped past the journaled value so surviving workers (whose
// views carry the old epoch) accept the recovered views as fresh.
// Recovered live members are treated as heartbeat-known: whether each
// survived the outage is re-established by the heartbeat timeout, so a
// worker that died while the clearinghouse was down is declared crashed
// and its work redone. cfg.Journal should be a freshly opened journal on
// the same path so the recovered incarnation keeps appending.
func NewFromRecovery(rec *RecoveredJob, conn phishnet.Conn, cfg Config) *Clearinghouse {
	c := New(rec.Spec, conn, cfg)
	now := c.clk.Now()
	// Recovered rows fold into the new store without epoch bumps; the
	// journaled epoch (plus one) seeds the counter.
	for _, jm := range rec.Members {
		c.store.RestoreMember(jm.Info, jm.Departed, now)
		if !jm.Departed && jm.Info.Addr != "" {
			conn.SetPeer(jm.Info.Worker, jm.Info.Addr)
		}
	}
	c.store.SetEpoch(rec.Epoch + 1)
	// Re-seed the recovered checkpoint blobs as synthetic reports: their
	// ordering key (all-zero counters) loses to any real report, so a
	// surviving worker's first live StatReport replaces the recovered row,
	// while a worker that died during the outage still has its blobs
	// attached to the WorkerDown when the heartbeat sweep declares it.
	for id, cks := range rec.Ckpts {
		c.store.FoldReport(wire.StatReport{Ver: wire.StatReportVersion, Worker: id, Ckpts: cks}, now)
	}
	c.rootHost = rec.RootHost
	c.armRoot = rec.ArmRoot
	c.restore = append([]wire.SnapshotReply(nil), rec.Restore...)
	c.restoreRoot = rec.RestoreRoot
	c.output.WriteString(rec.Output)
	c.ioLines = rec.IOLines
	if rec.Done {
		c.done = true
		c.result = rec.Result
		close(c.doneCh)
	}
	if tb := cfg.Trace; tb.Enabled() {
		tb.Add(trace.Event{
			At:     now,
			Worker: types.ClearinghouseID,
			Kind:   trace.EvJournalReplay,
			Note:   fmt.Sprintf("resumed job %d: %d member(s), epoch %d", rec.Spec.ID, len(rec.Members), c.store.Epoch()),
		})
	}
	return c
}

// journalStateLocked snapshots the control-plane state into the journal
// (no-op without one). Called with c.mu held after every mutation of the
// member table, root location, or restore bundles.
func (c *Clearinghouse) journalStateLocked() {
	if c.journal == nil {
		return
	}
	rec := &journalRecord{
		Kind:        jState,
		RootHost:    c.rootHost,
		ArmRoot:     c.armRoot,
		Epoch:       c.store.Epoch(),
		Restore:     c.restore,
		RestoreRoot: c.restoreRoot,
	}
	for _, m := range c.store.Members() {
		rec.Members = append(rec.Members, journalMember{Info: m.Info, Departed: m.Departed})
	}
	c.journal.append(rec, true)
}
