// Package clearinghouse implements the per-job Clearinghouse of the paper
// (Section 3, Figure 3): an application-independent process that keeps
// track of the workers participating in one parallel job, pushes periodic
// membership updates, funnels application I/O so "a user need only watch
// the Clearinghouse to see job output", arbitrates worker retirement when
// parallelism shrinks, and holds the redundant state needed to restart a
// job whose root lineage is lost to a crash.
//
// All of a clearinghouse's state sits behind one mutex, c.mu: the job-level
// state (result, output, root location, checkpoint bookkeeping) and the
// worker-keyed tables (membership, heartbeat liveness and per-worker stat
// telemetry in shardstore, the health grades, the span collector's
// per-worker cursors), none of which has a lock of its own. Every inbound
// message and every periodic sweep runs on the Run goroutine under one
// acquisition of c.mu; the readers on other goroutines (rollups, span
// export, debug dumps) take it too.
package clearinghouse

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"phish/internal/clearinghouse/shardstore"
	"phish/internal/clock"
	"phish/internal/phishnet"
	"phish/internal/stats"
	"phish/internal/telemetry"
	"phish/internal/types"
	"phish/internal/wire"
)

// Config tunes a clearinghouse.
type Config struct {
	// UpdateEvery is the interval between unsolicited membership pushes
	// (the paper's workers obtain an update "once every 2 minutes";
	// membership changes are pushed immediately regardless).
	UpdateEvery time.Duration
	// HeartbeatTimeout declares a worker crashed when nothing is heard
	// from it for this long. Zero disables heartbeat-based detection
	// (explicit crash notifications still work). A worker that has never
	// sent a single heartbeat is exempt from this timeout — a participant
	// configured with heartbeats off must not be declared dead by a
	// clearinghouse with them on — until its registration grace of 4×
	// HeartbeatTimeout runs out: exempting it forever would leak its
	// closures. With PhiThreshold > 0 this fixed timeout only governs
	// members whose inter-arrival history is still cold.
	HeartbeatTimeout time.Duration
	// PhiThreshold enables the phi-accrual adaptive failure detector:
	// a heartbeat-known worker with a warm inter-arrival history is
	// declared crashed when its suspicion score crosses this value
	// (phi 1 ≈ 90% confidence, 2 ≈ 99%, 8 ≈ 1-1e-8). Zero or negative
	// disables phi and keeps the classic fixed HeartbeatTimeout for
	// everyone. DefaultConfig enables it at 8.
	PhiThreshold float64
	// PhiSlack is the acceptable-pause allowance subtracted from a
	// worker's elapsed silence before phi scoring, absorbing GC and
	// scheduler stalls that are much larger than network jitter. Zero
	// means HeartbeatTimeout (detection is then never more trigger-happy
	// than the classic fixed timeout); negative means no allowance.
	PhiSlack time.Duration
	// SuspectDrainAfter orders a planned drain (the PR-5 migration path)
	// for a worker that has stayed suspect continuously for this long:
	// its deque and checkpoints move to a healthy peer in milliseconds
	// instead of being redone after an eventual crash declaration. Zero
	// disables drain orders.
	SuspectDrainAfter time.Duration
	// Journal, when non-nil, receives every control-plane state change so
	// a restarted clearinghouse can resume the job (see journal.go).
	Journal *Journal
	// Clock drives the periodic behavior; nil means the system clock.
	Clock clock.Clock
	// Metrics, when non-nil, records the journal append+fsync latency
	// histogram and is folded into the cluster rollup.
	Metrics *telemetry.Metrics
}

// DefaultConfig mirrors the paper's coarse communication granularity,
// scaled from minutes to seconds so laptop runs exercise the same paths.
// Heartbeat crash detection is on by default at 3× the update interval
// (the paper's workers check in every update period; three missed periods
// means the machine, not the network, is gone).
func DefaultConfig() Config {
	return Config{
		UpdateEvery:      2 * time.Second,
		HeartbeatTimeout: 6 * time.Second,
		PhiThreshold:     8,
		Clock:            clock.System,
	}
}

// phiSlack resolves the acceptable-pause allowance (see Config.PhiSlack).
func (c *Config) phiSlack() time.Duration {
	switch {
	case c.PhiSlack > 0:
		return c.PhiSlack
	case c.PhiSlack < 0:
		return 0
	default:
		return c.HeartbeatTimeout
	}
}

// reportTTL evicts stat-telemetry rows of departed or never-registered
// workers once their last report is this old. It rides the heartbeat
// sweep, so it runs only with HeartbeatTimeout > 0. Live members are never
// evicted.
const reportTTL = 5 * time.Minute

// Clearinghouse tracks one job. Create with New, then Run (usually in a
// goroutine); WaitResult blocks until the job's root result arrives.
type Clearinghouse struct {
	job  types.JobID
	spec wire.JobSpec
	conn phishnet.Conn
	cfg  Config
	clk  clock.Clock

	// counters is the clearinghouse's own telemetry (messages, journal
	// records, transport retransmits, false evictions).
	counters stats.Counters
	// Crash-recovery journal (see journal.go); nil when not journaling.
	journal *Journal

	doneCh chan struct{}
	stopCh chan struct{}
	ranCh  chan struct{} // closed when Run exits

	// mu guards every field below it.
	mu sync.Mutex
	// store holds the worker-keyed tables: membership rows, heartbeat
	// liveness, membership epoch, and per-worker StatReport telemetry.
	store *shardstore.Store
	// spans collects piggybacked trace spans and aligns worker clocks
	// (see spans.go).
	spans *spanSink
	// health grades live workers (phi band, exec-rate and steal-RTT EWMA
	// tracks) into the suspect set; see health.go.
	health healthState
	// evicted remembers recently swept-dead workers: a heartbeat arriving
	// from one is a detector false positive, counted once in
	// counters.FalseEvictions. Entries expire on the sweep tick.
	evicted map[types.WorkerID]time.Time
	// lastCkptJournal paces per-worker checkpoint journaling: blobs arrive
	// on every StatReport but hit the disk at most once per UpdateEvery per
	// worker.
	lastCkptJournal map[types.WorkerID]time.Time

	rootHost types.WorkerID
	armRoot  bool // spawn the root at the next registration
	done     bool
	result   types.Value
	output   strings.Builder

	// Checkpoint coordination (see checkpoint.go).
	ckpt        *ckptState
	ckptSeq     uint64
	restore     []wire.SnapshotReply
	restoreRoot types.WorkerID
}

// New builds a clearinghouse for spec, speaking on conn (which must be
// attached as types.ClearinghouseID).
func New(spec wire.JobSpec, conn phishnet.Conn, cfg Config) *Clearinghouse {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System
	}
	c := &Clearinghouse{
		job:             spec.ID,
		spec:            spec,
		conn:            conn,
		cfg:             cfg,
		clk:             clk,
		store:           shardstore.New(),
		spans:           newSpanSink(),
		rootHost:        types.NoWorker,
		armRoot:         true,
		journal:         cfg.Journal,
		lastCkptJournal: make(map[types.WorkerID]time.Time),
		evicted:         make(map[types.WorkerID]time.Time),
		doneCh:          make(chan struct{}),
		stopCh:          make(chan struct{}),
		ranCh:           make(chan struct{}),
	}
	c.store.SetPhiSlack(cfg.phiSlack())
	if c.journal != nil {
		c.journal.instrument(&c.counters, cfg.Metrics.WALAppend())
		c.journal.append(&journalRecord{Kind: jSpec, Spec: spec}, true)
	}
	return c
}

// Run services the job until Stop is called or the job completes and all
// workers have unregistered.
func (c *Clearinghouse) Run() {
	defer close(c.ranCh)
	var tick <-chan time.Time
	if c.cfg.UpdateEvery > 0 {
		tick = c.clk.After(c.cfg.UpdateEvery)
	}
	var hbTick <-chan time.Time
	if c.cfg.HeartbeatTimeout > 0 {
		hbTick = c.clk.After(c.cfg.HeartbeatTimeout / 2)
	}
	for {
		select {
		case <-c.stopCh:
			return
		case env, ok := <-c.conn.Recv():
			if !ok {
				return
			}
			c.ingest(env)
		case <-tick:
			c.broadcastUpdate()
			tick = c.clk.After(c.cfg.UpdateEvery)
		case <-hbTick:
			c.checkHeartbeats()
			hbTick = c.clk.After(c.cfg.HeartbeatTimeout / 2)
		}
	}
}

// ingest handles one received envelope. A zero-copy view (UDP; the root
// result's Arg, say) is materialized first, so every message takes the one
// handle path whatever transport carried it. StatReports have no view
// form and arrive as structs either way.
func (c *Clearinghouse) ingest(env *wire.Envelope) {
	if err := env.Materialize(); err != nil {
		env.Free() // corrupt frame: consume and drop
		return
	}
	c.handle(env)
}

// Stop shuts the clearinghouse down.
func (c *Clearinghouse) Stop() {
	select {
	case <-c.stopCh:
	default:
		close(c.stopCh)
	}
	<-c.ranCh
}

// WaitResult blocks until the root result arrives or the timeout elapses.
func (c *Clearinghouse) WaitResult(timeout time.Duration) (types.Value, error) {
	var tc <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		tc = t.C
	}
	select {
	case <-c.doneCh:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.result, nil
	case <-tc:
		return nil, fmt.Errorf("clearinghouse: job %d: no result after %v", c.job, timeout)
	}
}

// Done reports whether the root result has arrived.
func (c *Clearinghouse) Done() bool {
	select {
	case <-c.doneCh:
		return true
	default:
		return false
	}
}

// Output returns everything workers printed through the clearinghouse.
func (c *Clearinghouse) Output() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.output.String()
}

// LiveWorkers returns the ids of currently participating workers.
func (c *Clearinghouse) LiveWorkers() []types.WorkerID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store.LiveIDs()
}

// RootHost returns the worker currently hosting the root task's lineage
// (types.NoWorker before the first registration or while a respawn is
// armed). Fault injectors use it to aim — or avoid — the one worker whose
// crash forces a full root redo.
func (c *Clearinghouse) RootHost() types.WorkerID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rootHost
}

// handle processes one envelope under c.mu.
func (c *Clearinghouse) handle(env *wire.Envelope) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := env.Payload.(wire.PeerGone); ok {
		// Transport-synthesized, local-only: retransmits to that worker
		// were exhausted, so declare the crash now instead of waiting out
		// the heartbeat timeout.
		c.crashLocked(p.Worker)
		return
	}
	c.counters.MessagesReceived.Add(1)
	// Any traffic from a live member proves it is alive; stamped reports
	// (heartbeats) are just the guaranteed minimum cadence.
	c.store.Touch(env.From, c.clk.Now())
	switch p := env.Payload.(type) {
	case wire.Register:
		c.onRegister(p)
	case wire.Unregister:
		c.onUnregister(p)
	case wire.StatReport:
		// Latest-wins per worker by cumulative progress: reports carry
		// cumulative values, so duplicates and reordering (within one
		// incarnation) fold idempotently and stale arrivals lose.
		c.store.FoldReport(p, c.clk.Now())
		c.maybeJournalCkpts(&p)
		c.spans.fold(&p)
		if p.SendNS != 0 {
			// A stamped report is the worker's heartbeat, self-reported
			// (From == Worker) or relayed, the same fold. Offset refinement
			// uses wall clocks on both ends (span timestamps are
			// wall-clock), so it deliberately bypasses the injectable c.clk.
			c.noteBeatFrom(p.Worker)
			c.store.Heartbeat(p.Worker, c.clk.Now())
			c.spans.noteHeartbeat(p.Worker, p.SendNS, time.Now().UnixNano())
		}
	case wire.Arg:
		c.onArg(p)
	case wire.IO:
		c.output.WriteString(p.Text)
		if !strings.HasSuffix(p.Text, "\n") {
			c.output.WriteByte('\n')
		}
		if c.journal != nil {
			text := p.Text
			if !strings.HasSuffix(text, "\n") {
				text += "\n"
			}
			c.journal.append(&journalRecord{Kind: jIO, Text: text}, false)
		}
	case wire.StayRequest:
		c.onStayRequest(p)
	case wire.SnapshotReply:
		if c.ckpt != nil && p.Seq == c.ckpt.seq && c.ckpt.workers[p.Worker] {
			c.ckpt.snaps[p.Worker] = p
		}
	default:
		// Workers talk to each other directly; anything else is stray.
	}
}

func (c *Clearinghouse) onRegister(p wire.Register) {
	if c.ckpt != nil && !c.store.Contains(p.Worker) {
		c.ckpt.aborted = true // a joiner mid-checkpoint invalidates the matrix
	}
	// An id registering while not live is a new incarnation — a restarted
	// worker or a checkpoint restore — whose span-batch numbering restarts
	// from 1, so its collector cursor must not carry over. A live id
	// re-registering is just a Register retry and keeps its cursor (its
	// recorder never restarted).
	if !c.store.IsLive(p.Worker) {
		c.spans.resetWorker(p.Worker)
	}
	// Worker ids are incarnation-unique (the JobManager mints a fresh one
	// per start), so a departed id re-registering is a protocol violation;
	// the store keeps the tombstone and we just answer. A duplicate
	// Register retry refreshes liveness.
	c.store.Register(p.Worker, wire.MemberInfo{
		Worker: p.Worker, Addr: p.Addr, HostedBy: p.Worker, Site: p.Site,
	}, c.clk.Now())
	c.conn.SetPeer(p.Worker, p.Addr)
	// RecvNS lets a tracing worker estimate its clock offset from the
	// registration round trip; wall clock on purpose (see handle).
	c.send(p.Worker, wire.RegisterReply{Assigned: p.Worker, View: c.view(),
		RecvNS: time.Now().UnixNano()})
	if c.done {
		// The job finished while this worker was still joining (easy on a
		// fast job: the shutdown broadcast predates its membership). Tell
		// it directly or it will thieve forever.
		c.send(p.Worker, wire.Shutdown{Reason: "job complete"})
	}
	if c.armRoot && !c.done {
		c.armRoot = false
		c.rootHost = p.Worker
		c.send(p.Worker, wire.SpawnRoot{Fn: c.spec.RootFn, Args: c.spec.RootArgs})
	}
	// Restoring from a checkpoint: hand the new worker a departed
	// participant's bundle as an ordinary migration, and tombstone the
	// old id so everything routes to the adopter. Bundle ids must not
	// collide with live members (a registrant may reuse an old id, in
	// which case it adopts its own former state and needs no tombstone).
	if !c.done {
		if idx := c.pickBundleLocked(p.Worker); idx >= 0 {
			bundle := c.restore[idx]
			c.restore = append(c.restore[:idx], c.restore[idx+1:]...)
			if bundle.Worker != p.Worker {
				c.store.AddTombstone(bundle.Worker, wire.MemberInfo{Worker: bundle.Worker, HostedBy: p.Worker})
			} else {
				c.store.Bump()
			}
			if bundle.Worker == c.restoreRoot {
				c.rootHost = p.Worker
			}
			c.send(p.Worker, wire.Migrate{
				From:     bundle.Worker,
				Closures: bundle.Closures,
				Records:  bundle.Records,
			})
		}
	}
	c.journalStateLocked()
	c.broadcastUpdateLocked()
}

func (c *Clearinghouse) onUnregister(p wire.Unregister) {
	if !c.store.IsLive(p.Worker) {
		return
	}
	if c.ckpt != nil && c.ckpt.workers[p.Worker] {
		c.ckpt.aborted = true
	}
	switch {
	case p.Reason == wire.LeaveCrash:
		c.crashLocked(p.Worker)
		return
	case p.MigratedTo != types.NoWorker:
		// Tombstone: the adopter now hosts the departed worker's tasks.
		// Flatten chains: anything previously hosted by the leaver moves
		// to the adopter too.
		c.store.Depart(p.Worker, p.MigratedTo)
		c.store.Rehost(p.Worker, p.MigratedTo)
		if c.rootHost == p.Worker {
			c.rootHost = p.MigratedTo
		}
	default:
		// Clean exit with no state. Keep a tombstone (HostedBy=NoWorker)
		// rather than deleting: a worker that simply vanishes from the
		// view is indistinguishable from one not yet announced, and the
		// steal-record recovery sweep must be able to tell "departed"
		// from "not seen yet".
		c.store.Depart(p.Worker, types.NoWorker)
		if c.rootHost == p.Worker && !c.done {
			// It left holding nothing while the job is unfinished; if the
			// root's lineage really is gone (e.g., the root spawn was
			// still in flight), the next registrant restarts it. A root
			// result already in flight wins harmlessly: duplicate
			// completions are deduplicated here.
			c.rootHost = types.NoWorker
			c.armRoot = true
		}
	}
	c.journalStateLocked()
	c.broadcastUpdateLocked()
}

// crashLocked handles the definitive loss of a worker and its state.
func (c *Clearinghouse) crashLocked(dead types.WorkerID) {
	// Salvage the dead worker's last published checkpoints before its rows
	// go: the WorkerDown broadcast carries them so the victims' redos
	// resume from the blobs instead of from zero.
	var ckpts []wire.TaskCkpt
	if r, ok := c.store.ReportOf(dead); ok {
		ckpts = r.Rep.Ckpts
	}
	if !c.store.Remove(dead) {
		return
	}
	delete(c.lastCkptJournal, dead)
	// Anything hosted by the dead worker is gone with it.
	c.store.RemoveHostedBy(dead)
	c.conn.DropPeer(dead)
	live := c.store.LiveIDs()
	down := wire.WorkerDown{Worker: dead, Ckpts: ckpts}
	if c.spans.total > 0 {
		// A traced job always traces its crash redos: the announcement's
		// sampling flag is merged into the redone closures so the redo
		// overhead shows up in the DAG analysis even under sampling.
		down.TC.Flags = wire.FlagSampled
	}
	for _, id := range live {
		c.send(id, down)
	}
	c.broadcastUpdateLocked()
	if c.rootHost == dead && !c.done {
		// The root lineage died. Respawn on any live worker, or arm the
		// respawn for the next registrant.
		c.rootHost = types.NoWorker
		if len(live) > 0 {
			c.rootHost = live[0]
			c.send(c.rootHost, wire.SpawnRoot{Fn: c.spec.RootFn, Args: c.spec.RootArgs})
		} else {
			c.armRoot = true
		}
	}
	c.journalStateLocked()
}

func (c *Clearinghouse) onArg(p wire.Arg) {
	if p.Cont.Task.Worker != types.ClearinghouseID {
		return // misrouted
	}
	c.counters.Synchronizations.Add(1)
	if c.done {
		return // duplicate root result after a redo; first one won
	}
	c.done = true
	c.result = p.Val
	if c.journal != nil {
		// The one record that must reach stable storage: the answer.
		c.journal.append(&journalRecord{Kind: jResult, Result: p.Val}, true)
	}
	close(c.doneCh)
	for _, id := range c.store.LiveIDs() {
		c.send(id, wire.Shutdown{Reason: "job complete"})
	}
}

func (c *Clearinghouse) onStayRequest(p wire.StayRequest) {
	// Keep the last participant, and keep the root's host (its lineage
	// base may still be in flight to it).
	stay := !c.done && (c.store.LiveCount() <= 1 || p.Worker == c.rootHost)
	c.send(p.Worker, wire.StayReply{Stay: stay})
}

// pickBundleLocked selects which restore bundle to hand the registrant:
// its own former id if present, else any bundle whose old id does not
// collide with a live member; -1 when none is safe to hand out yet.
func (c *Clearinghouse) pickBundleLocked(registrant types.WorkerID) int {
	if len(c.restore) == 0 {
		return -1
	}
	fallback := -1
	for i, b := range c.restore {
		if b.Worker == registrant {
			return i
		}
		if fallback == -1 && !c.store.IsLive(b.Worker) {
			fallback = i
		}
	}
	return fallback
}

// view assembles the membership view. The caller holds c.mu, so the epoch
// and the member rows are mutually consistent.
func (c *Clearinghouse) view() wire.MembershipView {
	v := wire.MembershipView{Epoch: c.store.Epoch()}
	for _, m := range c.store.Members() {
		v.Members = append(v.Members, m.Info)
	}
	return v
}

// broadcastUpdate pushes the current view to every live member.
func (c *Clearinghouse) broadcastUpdate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.broadcastUpdateLocked()
}

// broadcastUpdateLocked is broadcastUpdate with c.mu held.
func (c *Clearinghouse) broadcastUpdateLocked() {
	view := c.view()
	for _, id := range c.store.LiveIDs() {
		c.send(id, wire.Update{View: view})
	}
}

// maybeJournalCkpts journals a report's checkpoint blobs (latest set per
// worker, unsynced — losing the tail to a crash only costs a slightly
// older resume point). Rate-limited per worker so the journal grows with
// membership churn, not with Yield frequency.
func (c *Clearinghouse) maybeJournalCkpts(rep *wire.StatReport) {
	if c.journal == nil || len(rep.Ckpts) == 0 {
		return
	}
	every := c.cfg.UpdateEvery
	if every <= 0 {
		every = 2 * time.Second
	}
	now := c.clk.Now()
	if last, ok := c.lastCkptJournal[rep.Worker]; ok && now.Sub(last) < every {
		return
	}
	c.lastCkptJournal[rep.Worker] = now
	c.journal.append(&journalRecord{Kind: jCkpt, CkptWorker: rep.Worker, Ckpts: rep.Ckpts}, false)
}

// checkHeartbeats is the periodic liveness and health sweep, run under one
// acquisition of c.mu.
func (c *Clearinghouse) checkHeartbeats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	// Workers with a warm phi history are judged by the adaptive detector
	// (when enabled); cold ones by the fixed timeout; workers that never
	// heartbeated only by the registration grace — silence from a worker
	// that never sent one usually means "not configured to heartbeat",
	// not "dead", but not forever.
	fallbackCutoff := now.Add(-c.cfg.HeartbeatTimeout)
	graceCutoff := now.Add(-4 * c.cfg.HeartbeatTimeout)
	for _, id := range c.store.SweepDead(c.cfg.PhiThreshold, now, fallbackCutoff, graceCutoff) {
		// Remember the eviction: a heartbeat arriving from this id later
		// proves the detector wrong and is counted as a false eviction.
		c.evicted[id] = now
		c.crashLocked(id)
	}
	// Expire eviction memory: a worker silent for ages after its eviction
	// really was dead, and the map must not grow with job churn.
	for id, at := range c.evicted {
		if now.Sub(at) > 10*c.cfg.HeartbeatTimeout {
			delete(c.evicted, id)
		}
	}
	c.sweepHealth(now)
	// Telemetry TTL rides the sweep: departed or never-registered workers'
	// stat rows age out instead of accreting forever.
	c.store.EvictReports(now.Add(-reportTTL))
}

// noteBeatFrom records detector feedback for an inbound heartbeat: one
// arriving from a recently evicted id means the sweep declared a live
// worker dead. The len guard keeps the hot path to one map-length check.
func (c *Clearinghouse) noteBeatFrom(id types.WorkerID) {
	if len(c.evicted) == 0 {
		return
	}
	if _, ok := c.evicted[id]; ok {
		delete(c.evicted, id)
		c.counters.FalseEvictions.Add(1)
	}
}

func (c *Clearinghouse) send(to types.WorkerID, payload any) {
	env := &wire.Envelope{Job: c.job, From: types.ClearinghouseID, To: to, Payload: payload}
	if err := c.conn.Send(env); err == nil {
		c.counters.MessagesSent.Add(1)
	}
}

// Counters exposes the clearinghouse's own counters so a UDP transport
// can be instrumented with them (retransmits, peer-gone reports).
func (c *Clearinghouse) Counters() *stats.Counters { return &c.counters }

// Stats snapshots the clearinghouse's own counters.
func (c *Clearinghouse) Stats() stats.Snapshot {
	s := c.counters.Snapshot()
	s.Worker = int(types.ClearinghouseID)
	s.MailboxDepthMax = int64(c.conn.InboxDepthMax())
	return s
}

// ClusterSnapshot assembles the whole-job telemetry rollup from the latest
// piggybacked worker reports: per-worker rows, Table 2-style totals (plus
// the clearinghouse's own journal counter), and merged latency histograms
// including the clearinghouse's WAL-append histogram. The rows are read
// under c.mu; the rollup is built outside it.
func (c *Clearinghouse) ClusterSnapshot() telemetry.ClusterSnapshot {
	c.mu.Lock()
	now := c.clk.Now()
	phiOf := make(map[types.WorkerID]int32)
	for _, row := range c.store.Phis(now) {
		if row.Warm {
			phiOf[row.Worker] = int32(row.Phi * 1000)
		}
	}
	reports := c.store.Reports()
	rows := make([]telemetry.WorkerRow, 0, len(reports))
	hists := make([][]wire.HistState, 0, len(reports)+1)
	for _, r := range reports {
		row := telemetry.WorkerRow{
			Worker:   int(r.Rep.Worker),
			Live:     c.store.IsLive(r.Rep.Worker),
			Deque:    r.Rep.Deque,
			AgeMS:    now.Sub(r.At).Milliseconds(),
			PhiMilli: phiOf[r.Rep.Worker],
			Stats:    stats.FromOrdered(r.Rep.Counters),
		}
		if e, ok := c.health.suspects[r.Rep.Worker]; ok {
			row.Suspect = e.Reason
		}
		rows = append(rows, row)
		hists = append(hists, r.Rep.Hists)
	}
	epoch, live := c.store.Epoch(), c.store.LiveCount()
	c.mu.Unlock()
	chStats := c.Stats()

	// The clearinghouse's own histograms (WAL append) join the merge.
	if states := c.cfg.Metrics.Export(); len(states) > 0 {
		hists = append(hists, states)
	}
	cs := telemetry.BuildClusterSnapshot(int64(c.job), c.spec.Program, epoch, live, rows, hists)
	cs.Totals.JournalRecords += chStats.JournalRecords
	// False evictions are detected clearinghouse-side (a heartbeat from a
	// swept-dead id), so they live in its own counters, not any report.
	cs.Totals.FalseEvictions += chStats.FalseEvictions
	// Every worker reports to this one inbox, so it is the likeliest to be
	// the job's deepest.
	if chStats.MailboxDepthMax > cs.Totals.MailboxDepthMax {
		cs.Totals.MailboxDepthMax = chStats.MailboxDepthMax
	}
	return cs
}

// Spans returns every trace span collected from the job's workers, with
// timestamps aligned onto the clearinghouse clock and sorted by start
// time — the input to the DAG analysis (internal/trace.BuildDAG).
func (c *Clearinghouse) Spans() []wire.Span {
	c.mu.Lock()
	out := c.spans.aligned()
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// SpanStats reports how many spans the collector retained and dropped.
func (c *Clearinghouse) SpanStats() (collected, dropped uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spans.stats()
}

// DebugMembers renders the membership table for post-mortem inspection.
func (c *Clearinghouse) DebugMembers() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := fmt.Sprintf("clearinghouse: done=%v rootHost=%d epoch=%d armRoot=%v\n",
		c.done, c.rootHost, c.store.Epoch(), c.armRoot)
	for _, m := range c.store.Members() {
		out += fmt.Sprintf("  member %d hostedBy=%d site=%d departed=%v\n",
			m.Info.Worker, m.Info.HostedBy, m.Info.Site, m.Departed)
	}
	return out
}
