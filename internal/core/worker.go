package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phish/internal/clock"
	"phish/internal/cputime"
	"phish/internal/deque"
	"phish/internal/phishnet"
	"phish/internal/stats"
	"phish/internal/types"
	"phish/internal/wire"
)

// Worker is one participating process of a parallel job: the paper's
// "worker", an instance of the application program run under the
// micro-level scheduler. Its Run loop executes ready tasks in LIFO order,
// steals from random victims when idle, answers other thieves' steal
// requests from the tail of its deque, migrates its state when the
// workstation's owner returns, and keeps steal records so work lost to a
// crashed thief can be redone.
//
// All scheduler state is owned by the Run goroutine; external control
// (Reclaim, Drain, Crash) is delivered through one atomic attention word
// plus a wake channel.
type Worker struct {
	id   types.WorkerID
	job  types.JobID
	prog *Program
	conn phishnet.Conn
	// recv is conn.Recv(), cached: the loop polls its length before every
	// task, and an envelope the mailbox accepted is visible to len at once.
	recv <-chan *wire.Envelope
	cfg  Config
	clk  clock.Clock

	// counters is exported via Stats(); the stats package uses atomics.
	// tasks holds the counts every task moves, as plain fields that
	// foldCounters copies into counters.
	counters stats.Counters
	tasks    taskCounts

	dq      deque.Deque[*Closure]
	join    JoinTable
	records map[types.TaskID]*stealRecord
	seq     uint64
	rng     *rand.Rand
	// fns holds what the worker knows about each Fn it has met (see
	// FnTable and fnEntry; lock-free: only the scheduler goroutine touches
	// it), ctx is the one TaskCtx reused across executions — valid because
	// task bodies run to completion and must not retain their context — and
	// closures is the pool tasks' closures come from (closure.go).
	fns      FnTable
	ctx      TaskCtx
	closures ClosurePool

	view          wire.MembershipView
	hostOf        map[types.WorkerID]types.WorkerID
	victims       []types.WorkerID
	localVictims  []types.WorkerID // same-site subset (site-aware policy)
	siteOf        map[types.WorkerID]int32
	dead          map[types.WorkerID]bool
	rrNext        int
	localFailures int // consecutive same-site failures (site-aware policy)

	stealPending  bool
	stealDeadline time.Time
	stealSentAt   time.Time
	stealVictim   types.WorkerID // target of the pending steal (for timeout blacklisting)
	// stealSpanID names the in-flight steal attempt's span (zero when no
	// attempt is traced); the id is minted from the worker's own sequence
	// so it can never collide with a task id.
	stealSpanID types.TaskID
	// Batched steal (DESIGN 5i rule 7): stealWant is how many closures the
	// next request asks for. stealRTT is the round trip of the last granted
	// request and batchAt the moment its batch was adopted; the next idle
	// edge resizes stealWant from the two. batchScr holds a batch on its way
	// in, grantScr one on its way out, grantBuf the encoding a grant is
	// sized by.
	stealWant int
	stealRTT  time.Duration
	batchAt   time.Time
	batchScr  []*Closure
	grantScr  []*Closure
	grantBuf  []byte

	consecFails int
	stayAsked   bool
	stayAskedAt time.Time
	retired     bool

	unsent    []wire.Arg
	lastRetry time.Time

	// Graded health (see speculate.go): the expiry-stamped suspect
	// blacklist, the speculation-scan pacer, and scratch for suspect-aware
	// victim picks (the per-Fn execution-time tracks behind the speculation
	// deadline live in fns). Scheduler goroutine only.
	suspect      map[types.WorkerID]suspectMark
	lastSpecScan time.Time
	victimsScr   []types.WorkerID
	localsScr    []types.WorkerID

	registered  bool
	shutdownMsg bool
	paused      bool

	// Clearinghouse-loss recovery: when the clearinghouse is unreachable
	// the worker keeps computing and re-registers with jittered exponential
	// backoff until a (possibly restarted) clearinghouse answers. The last
	// root result is retained so it can be re-sent after a reconnect — the
	// clearinghouse deduplicates, so a crash between receiving the result
	// and persisting it loses nothing. chDownAt is when the outage began
	// (its SpanRecover's start).
	chDown      bool
	chDownAt    time.Time
	chWait      time.Duration
	chNextTry   time.Time
	rootResult  *wire.Arg
	msgSentTo   map[types.WorkerID]int64
	msgRecvFr   map[types.WorkerID]int64
	migrateAck  bool
	migrating   bool
	forwardTo   types.WorkerID
	leaveReason wire.LeaveReason

	// Drain coordination: the clearinghouse's answer to our DrainRequest
	// (scheduler goroutine only).
	drainAcked  bool
	drainVictim types.WorkerID

	// stash holds envelopes a Yield pulled off the wire mid-task: the body
	// is preempted so the scheduler loop can handle them, and drainAll
	// consumes the stash before the connection (scheduler goroutine only).
	stash []*wire.Envelope

	// Checkpoint publication. A Yield saves its blob on the closure and
	// nowhere else; ckptPub, which StatReports mirror, gets a copy only when
	// publication is due, so it holds per in-flight task a blob at most
	// CkptEvery older than the closure's own. The mutex is needed because
	// the heartbeat goroutine reads the table while the scheduler goroutine
	// updates it. ckptDue says publication is due: raised from the start
	// (the first blob goes out at once) and then by ckptTimer one interval
	// after each publication, so a Yield learns it from a load, not from
	// the clock. yieldsUnpolled counts the Yields since one
	// last looked at the socket (see TaskCtx.Yield). Timer, counter and the
	// lowering of the flag: scheduler goroutine only.
	ckptMu         sync.Mutex
	ckptPub        map[types.TaskID]wire.TaskCkpt
	ckptTimer      *time.Timer
	yieldsUnpolled int
	ckptDue        atomic.Bool

	// attn is the attention word: sticky leave / crash request bits, set
	// from any goroutine (Reclaim, Drain, Crash) and by the scheduler itself
	// (a DrainOrder, a task panic), read once per task by the loop.
	attn atomic.Uint32
	// housekeep makes the loop's next iteration a housekeeping pass whatever
	// else is quiet: set after every timed execution and every yield, which
	// bounds how long an undisturbed worker goes between passes (see loop).
	// sinceTimed counts the untimed executions since the last timed one.
	// Scheduler goroutine only.
	housekeep  bool
	sinceTimed int
	// drainOrdered distinguishes a clearinghouse degradation drain from an
	// owner-return reclaim: the manager quarantines the machine after the
	// former. Loop goroutine only.
	drainOrdered bool
	wakeCh       chan struct{}
	// idleTimer is drainOne's timer, reused across idle waits (loop
	// goroutine only; nil until the first wait).
	idleTimer *time.Timer
	// procs is GOMAXPROCS as the worker was built, kept so the steal path
	// does not take the scheduler lock to ask again on every attempt.
	procs int
	// net is the transport's own-thread half when the connection has one
	// (see netPoller); nil on the in-memory fabric and outside Run.
	net netPoller

	hbStop chan struct{}

	startT atomic.Int64 // unix nanoseconds at Run entry (0 = not started); Stats races with Run
	execT  atomic.Int64 // wall nanoseconds, set at exit
	cpuT   atomic.Int64 // thread CPU nanoseconds, set at exit (0 if unknown)

	orphanDrops atomic.Int64
	heartbeats  atomic.Int64

	// readyDepth mirrors dq.Len() for the heartbeat goroutine's stat
	// reports; the deque itself is owned by the scheduler goroutine. It is
	// a sampled gauge: refreshed on every housekeeping pass of the loop, not
	// on every task.
	readyDepth atomic.Int32

	// spans is the distributed-tracing recorder, nil unless
	// Config.SpanTrace or a sampled trace context arrives from another
	// process (ensureSpans): every recording site guards with one
	// atomic pointer load, so the hot paths pay (and allocate) nothing
	// when tracing is off. Atomic because the scheduler goroutine may
	// enable it mid-run while the heartbeat goroutine builds reports.
	// regSentNS remembers when the last Register left, so the
	// RegisterReply round trip yields the clock-offset estimate.
	spans     atomic.Pointer[spanRecorder]
	regSentNS int64

	// debug counters for the steal protocol (DebugDump only)
	dbgGrants, dbgRepliesOK, dbgRepliesFail, dbgAdopts atomic.Int64
}

// NewWorker builds a worker for job job with the caller-allocated unique
// id, speaking over conn. The caller retains responsibility for id
// uniqueness across the job's lifetime (the PhishJobManager derives it
// from its workstation id and a per-job incarnation counter).
func NewWorker(job types.JobID, id types.WorkerID, prog *Program, conn phishnet.Conn, cfg Config, clk clock.Clock) *Worker {
	if clk == nil {
		clk = clock.System
	}
	w := &Worker{
		id:          id,
		job:         job,
		prog:        prog,
		conn:        conn,
		recv:        conn.Recv(),
		cfg:         cfg,
		clk:         clk,
		join:        NewJoinTable(id),
		records:     make(map[types.TaskID]*stealRecord),
		fns:         NewFnTable(prog),
		rng:         rand.New(rand.NewSource(cfg.Seed + int64(id)*0x9e3779b9)),
		hostOf:      make(map[types.WorkerID]types.WorkerID),
		siteOf:      make(map[types.WorkerID]int32),
		msgSentTo:   make(map[types.WorkerID]int64),
		msgRecvFr:   make(map[types.WorkerID]int64),
		dead:        make(map[types.WorkerID]bool),
		suspect:     make(map[types.WorkerID]suspectMark),
		forwardTo:   types.NoWorker,
		stealVictim: types.NoWorker,
		stealWant:   1,
		ckptPub:     make(map[types.TaskID]wire.TaskCkpt),
		wakeCh:      make(chan struct{}, 1),
		procs:       runtime.GOMAXPROCS(0),
		hbStop:      make(chan struct{}),
	}
	if cfg.SpanTrace {
		w.spans.Store(newSpanRecorder(cfg.SpanBuf))
	}
	w.ckptDue.Store(true)
	return w
}

// ensureSpans lazily enables the span recorder when a sampled trace
// context reaches this worker from another process. The submitter's
// workers get Config.SpanTrace up front; a worker spawned later by a
// jobmanager learns that the job is traced from the first sampled task
// that arrives, so a sampled subtree is recorded wherever it executes.
// A late recorder has no registration clock estimate (offset 0); the
// collector's heartbeat one-way-delay clamp still bounds its alignment.
func (w *Worker) ensureSpans(tc wire.TraceCtx) {
	if tc.Sampled() && w.spans.Load() == nil {
		w.spans.Store(newSpanRecorder(w.cfg.SpanBuf))
	}
}

// ID returns the worker's identity within its job.
func (w *Worker) ID() types.WorkerID { return w.id }

// LeaveReason reports why the worker left (valid after Run returns).
func (w *Worker) LeaveReason() wire.LeaveReason { return w.leaveReason }

// SpanDrops reports spans lost to this worker's recorder buffer cap
// (always zero when span tracing is off).
func (w *Worker) SpanDrops() uint64 {
	if w.spans.Load() == nil {
		return 0
	}
	return w.spans.Load().droppedCount()
}

// taskCounts are the counters every task moves. Only the scheduler
// goroutine writes them, so they are plain fields — five LOCK-prefixed
// updates per task saved — and reach the atomics other goroutines read
// through foldCounters.
type taskCounts struct {
	spawned, executed, synchs int64
	inUse, maxInUse           int64
}

// created records a closure spawned here.
func (c *taskCounts) created() {
	c.spawned++
	c.adopted()
}

// adopted records a live closure that arrived from elsewhere (steal,
// migration, redo) and maintains the working-set high-water mark.
func (c *taskCounts) adopted() {
	if c.inUse++; c.inUse > c.maxInUse {
		c.maxInUse = c.inUse
	}
}

// retired records that a live closure finished or left this worker.
func (c *taskCounts) retired() { c.inUse-- }

// foldCounters publishes the plain task counts into w.counters. It runs on
// every housekeeping pass of the loop, before the scheduler goroutine sends
// a StatReport or its Unregister, and when Run returns: Stats after Run is
// exact, and one taken meanwhile (a heartbeat's report among them) lags by
// at most one pass. Scheduler goroutine only.
func (w *Worker) foldCounters() {
	c, t := &w.counters, &w.tasks
	c.TasksSpawned.Store(t.spawned)
	c.TasksExecuted.Store(t.executed)
	c.Synchronizations.Store(t.synchs)
	c.TasksInUse.Store(t.inUse)
	c.MaxTasksInUse.Store(t.maxInUse)
}

// Stats snapshots the worker's counters, including its execution time
// (time in Run so far, frozen at exit). The task counts are folded in on
// housekeeping passes, so while the worker runs they may lag; they are
// exact once Run has returned.
func (w *Worker) Stats() stats.Snapshot {
	s := w.counters.Snapshot()
	s.Worker = int(w.id)
	s.Orphans = w.orphanDrops.Load()
	s.MailboxDepthMax = int64(w.conn.InboxDepthMax())
	if ns := w.execT.Load(); ns > 0 {
		s.WallTime = time.Duration(ns)
	} else if t0 := w.startT.Load(); t0 > 0 {
		s.WallTime = time.Since(time.Unix(0, t0))
	}
	// Execution time in the paper's sense: CPU time of the worker's
	// thread when available (see internal/cputime), wall time otherwise.
	if ns := w.cpuT.Load(); ns > 0 {
		s.ExecTime = time.Duration(ns)
	} else {
		s.ExecTime = s.WallTime
	}
	return s
}

// Counters exposes the worker's live counter block so transports can
// account retransmits and peer-gone reports against this participant.
func (w *Worker) Counters() *stats.Counters { return &w.counters }

// OrphanDrops reports results that arrived for tasks no longer present
// (expected after crash recovery; always zero in fault-free runs).
func (w *Worker) OrphanDrops() int64 { return w.orphanDrops.Load() }

// Heartbeats reports heartbeat messages sent (tracked apart from
// MessagesSent so Table 2 comparisons are not polluted by a mechanism the
// paper's measurements predate).
func (w *Worker) Heartbeats() int64 { return w.heartbeats.Load() }

// Reclaim asks the worker to leave because the workstation's owner
// returned, on a planned schedule: the in-flight task is offered
// preemption at its next Yield, the deque (with any checkpoints) is handed
// to a victim chosen by the clearinghouse, a final StatReport is flushed,
// and the worker unregisters. Work moves in milliseconds instead of being
// redone. A worker not yet registered gives up registering instead. Safe
// from any goroutine; returns immediately.
func (w *Worker) Reclaim() {
	w.setAttn(attnLeave)
	w.wake()
}

// Crash makes the worker die abruptly without migrating or unregistering —
// fault injection for the recovery machinery. Safe from any goroutine.
func (w *Worker) Crash() {
	w.setAttn(attnCrash)
	w.wake()
}

// Drain is Reclaim: there is one way to leave with one's work.
func (w *Worker) Drain() { w.Reclaim() }

// Bits of the attention word.
const (
	attnLeave uint32 = 1 << iota // Reclaim, Drain, or the clearinghouse's DrainOrder
	attnCrash                    // Crash, or a task body panicked
)

// setAttn raises bits in the attention word; they are never lowered.
func (w *Worker) setAttn(bits uint32) {
	for {
		old := w.attn.Load()
		if old&bits == bits || w.attn.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// attnHas reports whether any of bits is raised.
func (w *Worker) attnHas(bits uint32) bool { return w.attn.Load()&bits != 0 }

// RecordSpan records sp if the worker traces and drops it otherwise. A
// zero End is stamped now, and a zero Start makes sp a point span at End.
// Safe from any goroutine: the UDP transport calls it for each frame it
// re-sends (phishnet.UDP.Instrument).
func (w *Worker) RecordSpan(sp wire.Span) {
	r := w.spans.Load()
	if r == nil {
		return
	}
	if sp.End == 0 {
		sp.End = time.Now().UnixNano()
	}
	if sp.Start == 0 {
		sp.Start = sp.End
	}
	r.add(sp)
}

func (w *Worker) wake() {
	select {
	case w.wakeCh <- struct{}{}:
	default:
	}
}

// netPoller is what a transport with a socket lets its owner do on the
// owner's own thread (phishnet.UDP; a fabric port has nothing to poll or
// flush). Poll moves whatever the socket holds into the inbox, first
// waiting on the socket for up to wait if it is empty and wait is positive;
// false means there is nothing to poll and the inbox channel is all there
// is. Flush sends what the transport was holding back for
// company. With as many workers as processors no other goroutine gets a
// processor to do either on the worker's behalf, so the worker polls
// wherever it already looks at its inbox off the per-task path, and flushes
// when it is about to wait.
type netPoller interface {
	Poll(wait time.Duration) bool
	Flush()
}

// netWaitSlice bounds one waiting Poll of an idle worker. A datagram ends
// the wait at once; a wake or a transport-made message (PeerGone) is
// noticed at the end of the slice.
const netWaitSlice = 5 * time.Millisecond

// pollNet moves what the worker's socket holds into its inbox, first
// waiting up to wait for the socket to hold something.
func (w *Worker) pollNet(wait time.Duration) {
	if w.net != nil && !w.net.Poll(wait) {
		w.net = nil // closed under us; the inbox channel says the rest
	}
}

// Run registers with the clearinghouse, participates until the job ends
// (or the worker retires, is reclaimed, or crashes), and returns the
// reason for leaving. It blocks for the worker's whole life.
func (w *Worker) Run() error {
	// The worker owns an OS thread so its CPU time can be accounted as
	// the participant's execution time (internal/cputime).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runningWorkers.Add(1)
	defer runningWorkers.Add(-1)
	if p, ok := w.conn.(netPoller); ok && p.Poll(0) {
		w.net = p // from here on the socket is read by this thread
	}
	cpu0, cpuOK := cputime.Thread()
	t0 := time.Now()
	w.startT.Store(t0.UnixNano())
	defer func() {
		w.foldCounters()
		w.execT.Store(int64(time.Since(t0)))
		if cpuOK {
			if cpu1, ok := cputime.Thread(); ok {
				w.cpuT.Store(int64(cpu1 - cpu0))
			}
		}
		if w.ckptTimer != nil {
			w.ckptTimer.Stop()
		}
		_ = w.conn.Close()
	}()

	if err := w.register(); err != nil {
		w.leaveReason = wire.LeaveCrash
		return err
	}
	if w.cfg.HeartbeatEvery > 0 {
		go w.heartbeatLoop()
		defer close(w.hbStop)
	}
	w.runLoop()

	switch {
	case w.attnHas(attnCrash):
		w.leaveReason = wire.LeaveCrash // die silently
	case w.shutdownMsg:
		w.leaveReason = wire.LeaveJobDone
		w.unregister(wire.LeaveJobDone, types.NoWorker)
	}
	return nil
}

// register announces the worker and waits for the clearinghouse's reply,
// retrying a few times (the clearinghouse may still be starting).
func (w *Worker) register() error {
	t0 := time.Now()
	for attempt := 0; attempt < 50; attempt++ {
		if w.attnHas(attnCrash | attnLeave) {
			return errors.New("core: worker stopped before registration")
		}
		reg := wire.Register{Worker: w.id, Addr: w.conn.LocalAddr(), Site: w.cfg.Site}
		if w.spans.Load() != nil {
			w.regSentNS = time.Now().UnixNano()
			reg.SendNS = w.regSentNS
		}
		w.sendTo(types.ClearinghouseID, reg)
		deadline := time.Now().Add(200 * time.Millisecond)
		for time.Now().Before(deadline) && !w.registered {
			w.drainOne(time.Until(deadline))
		}
		if w.registered {
			w.RecordSpan(wire.Span{Kind: wire.SpanRegister, Worker: w.id,
				Peer: types.ClearinghouseID, Start: t0.UnixNano()})
			if m := w.cfg.Metrics; m != nil {
				m.Register().ObserveSince(t0)
			}
			return nil
		}
	}
	return fmt.Errorf("core: worker %d could not register with clearinghouse", w.id)
}

// Re-register backoff bounds: fast enough that a restarted clearinghouse
// is rediscovered promptly, slow enough (after a few doublings) that a
// long outage costs a trickle of tiny datagrams.
const (
	chReRegisterBase = 25 * time.Millisecond
	chReRegisterCap  = 2 * time.Second
)

// jitterBackoff scales d by a uniform factor in [0.75, 1.25) so a herd of
// workers that lost the same clearinghouse does not retry in lockstep.
func (w *Worker) jitterBackoff(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.75 + 0.5*w.rng.Float64()))
}

// noteCHDown flags the clearinghouse as unreachable and arms the first
// re-register attempt. Idempotent while already down. The worker keeps
// computing and stealing throughout — only the control plane is gone.
func (w *Worker) noteCHDown() {
	if w.chDown || w.shutdownMsg {
		return
	}
	w.chDown = true
	w.chDownAt = time.Now()
	w.chWait = chReRegisterBase
	w.chNextTry = w.chDownAt.Add(w.jitterBackoff(w.chWait))
}

// maybeReRegister drives the re-register loop while the clearinghouse is
// unreachable: one Register per backoff interval, doubling with jitter up
// to the cap, until some clearinghouse — typically a restarted one that
// replayed its journal — answers with a RegisterReply.
func (w *Worker) maybeReRegister() {
	if !w.chDown {
		return
	}
	now := time.Now()
	if now.Before(w.chNextTry) {
		return
	}
	reg := wire.Register{Worker: w.id, Addr: w.conn.LocalAddr(), Site: w.cfg.Site}
	if w.spans.Load() != nil {
		w.regSentNS = now.UnixNano()
		reg.SendNS = w.regSentNS
	}
	_ = w.sendTo(types.ClearinghouseID, reg)
	w.counters.ReRegistrations.Add(1)
	w.chWait *= 2
	if w.chWait > chReRegisterCap {
		w.chWait = chReRegisterCap
	}
	w.chNextTry = now.Add(w.jitterBackoff(w.chWait))
}

// chRecovered clears the down state once the clearinghouse answers. The
// retained root result is re-sent: a restarted clearinghouse may have
// crashed before persisting it, and it deduplicates if not.
func (w *Worker) chRecovered() {
	w.RecordSpan(wire.Span{Kind: wire.SpanRecover, Worker: w.id,
		Peer: types.ClearinghouseID, Start: w.chDownAt.UnixNano()})
	w.chDown = false
	w.chWait = 0
	w.resendRootResult()
}

// resendRootResult sends the retained root result again, if this worker
// produced it; the clearinghouse keeps the first copy it sees.
func (w *Worker) resendRootResult() {
	if w.rootResult == nil {
		return
	}
	a := *w.rootResult
	if err := w.sendTo(types.ClearinghouseID, a); err != nil {
		w.unsent = append(w.unsent, a)
	}
}

// onPeerGone handles a transport death notice (retransmits to the peer
// were exhausted). For the clearinghouse, enter the re-register loop; for
// any other peer, treat the victim as gone exactly as if the
// clearinghouse had announced the crash — its own announcement usually
// follows and both paths are idempotent.
func (w *Worker) onPeerGone(peer types.WorkerID) {
	w.counters.PeerGoneReports.Add(1)
	w.RecordSpan(wire.Span{Kind: wire.SpanPeerGone, Worker: w.id, Peer: peer})
	if peer == types.ClearinghouseID {
		if w.registered {
			w.noteCHDown()
		}
		return
	}
	w.onWorkerDown(peer, nil, wire.TraceCtx{})
}

func (w *Worker) heartbeatLoop() {
	for {
		select {
		case <-w.hbStop:
			return
		case <-w.clk.After(w.cfg.HeartbeatEvery):
			hb := wire.Heartbeat{Worker: w.id}
			if w.spans.Load() != nil {
				// Stamp the heartbeat so the collector can bound (and
				// refine) this worker's clock-offset estimate from the
				// one-way delay.
				hb.SendNS = time.Now().UnixNano()
			}
			env := &wire.Envelope{Job: w.job, From: w.id, To: types.ClearinghouseID,
				Payload: hb}
			if err := w.conn.Send(env); err == nil {
				w.heartbeats.Add(1)
			}
			// Piggyback the telemetry report on the same cadence: over UDP
			// the batching window coalesces it into the heartbeat's
			// datagram. Sent unreliably (and kept out of MessagesSent, like
			// heartbeats) — a pre-telemetry clearinghouse just drops it. A
			// snapshot too big for one datagram ships as several reports.
			for _, sr := range w.statReports() {
				rep := &wire.Envelope{Job: w.job, From: w.id, To: types.ClearinghouseID,
					Payload: sr}
				_ = w.conn.Send(rep)
			}
		}
	}
}

// statReports assembles the piggybacked telemetry record, split across as
// many reports as the datagram budget requires. Everything read here is
// atomic (counters, the deque-depth mirror, histogram buckets) or
// mutex-guarded (the checkpoint table), so the heartbeat goroutine can
// build it without touching scheduler state.
func (w *Worker) statReports() []wire.StatReport {
	rep := wire.StatReport{
		Ver:      wire.StatReportVersion,
		Worker:   w.id,
		Deque:    w.readyDepth.Load(),
		Counters: w.Stats().Ordered(),
		Hists:    w.cfg.Metrics.Export(),
		Ckpts:    w.ckptSnapshot(),
	}
	if w.spans.Load() != nil {
		rep.SpanSeq, rep.Spans = w.spans.Load().batch()
		rep.ClockOffNS = w.spans.Load().offset()
	}
	return planStatReports(rep, statReportBudget)
}

// ckptSnapshot copies the publication table for a StatReport. Blob slices
// are immutable once in the table (publishCkpt copies on insert), so sharing
// them across reports is safe.
func (w *Worker) ckptSnapshot() []wire.TaskCkpt {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	if len(w.ckptPub) == 0 {
		return nil
	}
	out := make([]wire.TaskCkpt, 0, len(w.ckptPub))
	for _, ck := range w.ckptPub {
		out = append(out, ck)
	}
	return out
}

// publishCkpt copies c's blob into the publication table the StatReports
// mirror, sends an unsolicited StatReport so the clearinghouse journal
// stays near the live frontier even between heartbeats, and arms the timer
// that makes publication due again one CkptEvery from now. A negative
// CkptEvery keeps the table filling at the default cadence and leaves the
// sending to the heartbeats. Yield calls it when ckptDue is raised.
func (w *Worker) publishCkpt(c *Closure) {
	ck := wire.TaskCkpt{Task: c.ID, Seq: c.CkptSeq, Data: append([]byte(nil), c.Ckpt...)}
	w.ckptMu.Lock()
	w.ckptPub[c.ID] = ck
	w.ckptMu.Unlock()
	c.published = true

	every := w.cfg.CkptEvery
	if every <= 0 {
		every = defaultCkptEvery
	}
	w.ckptDue.Store(false)
	if w.ckptTimer == nil {
		w.ckptTimer = time.AfterFunc(every, func() { w.ckptDue.Store(true) })
	} else {
		w.ckptTimer.Reset(every)
	}
	if w.cfg.CkptEvery < 0 {
		return
	}
	// Unsolicited and unreliable, exactly like the heartbeat piggyback.
	w.foldCounters()
	for _, sr := range w.statReports() {
		rep := &wire.Envelope{Job: w.job, From: w.id, To: types.ClearinghouseID,
			Payload: sr}
		_ = w.conn.Send(rep)
	}
}

// dropCkptPub removes a published task's entry once the task has completed
// or left, so later StatReports stop advertising a blob nobody here can
// ever resume.
func (w *Worker) dropCkptPub(id types.TaskID) {
	w.ckptMu.Lock()
	delete(w.ckptPub, id)
	w.ckptMu.Unlock()
}

// runLoop runs the scheduler loop and contains a panicking task body. A
// panicking task is an application bug; it is confined to this worker
// (which then counts as crashed, so the job's other participants redo the
// lost work) instead of killing the whole process. A deterministic panic
// will of course recur on the worker that redoes it — that is the
// application's bug to fix. One recover serves the worker's whole life, so
// a task pays for no defer; a panic with no body running is a bug in the
// scheduler itself and goes on up the stack.
func (w *Worker) runLoop() {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		cl := w.ctx.c
		if cl == nil {
			panic(r)
		}
		w.ctx.c = nil
		w.setAttn(attnCrash)
		w.leaveReason = wire.LeaveCrash
		// Said twice: on this process's standard output, and — before the
		// worker goes quiet — through the clearinghouse, which is where the
		// job's submitter is looking.
		line := fmt.Sprintf("phish: worker %d: task %v (%s) panicked: %v\n%s",
			w.id, cl.ID, cl.Fn, r, panicFrames(debug.Stack(), 8))
		fmt.Print(line)
		w.print(line)
	}()
	w.loop()
}

// panicFrames cuts a debug.Stack taken inside a recovering deferred call
// down to the n frames under the call to panic: where the body blew up,
// without the recovery machinery above it or the scheduler below.
func panicFrames(stack []byte, n int) string {
	s := string(stack)
	if i := strings.Index(s, "\npanic("); i >= 0 {
		s = s[i+1:]
	}
	lines := strings.SplitAfter(s, "\n")
	if len(lines) > 2*(n+1) { // two lines per frame; the first frame is panic itself
		lines = lines[:2*(n+1)]
	}
	return strings.Join(lines, "")
}

// loop is the scheduler: drain messages, run ready work, thieve when idle.
//
// Each iteration starts with one attention check — the attention word, the
// inbox and stash lengths, the housekeep flag and whatever the scheduler
// itself has armed (parked args, a clearinghouse outage, a checkpoint
// pause, suspects with records to speculate on). On an undisturbed worker
// all of it is clear and the iteration is pop-and-execute. Anything else
// takes the housekeeping pass below, which is also what notices an inbox
// closed without a Shutdown message (a closed empty channel has length 0),
// refreshes readyDepth, folds the task counters and — for a worker that
// reads its own socket — moves what has arrived there into the inbox.
// Every timed execution sets housekeep (see
// execute), and at least one task in timedEvery is timed, so a pass is
// never further away than timedEvery-1 fine-grain tasks — under 150 µs of
// work — while a worker running coarse tasks makes one before every task.
func (w *Worker) loop() {
	for {
		attn := w.attn.Load()
		if attn == 0 && len(w.recv) == 0 && len(w.stash) == 0 && !w.housekeep &&
			len(w.unsent) == 0 && !w.chDown && !w.paused &&
			(len(w.suspect) == 0 || len(w.records) == 0) {
			if cl, ok := w.popNext(); ok {
				w.execute(cl)
				continue
			}
		}
		if attn&attnCrash != 0 {
			return
		}
		w.housekeep = false
		w.readyDepth.Store(int32(w.dq.Len()))
		w.foldCounters()
		w.pollNet(0)
		w.drainAll()
		w.retryUnsent(false)
		w.maybeReRegister()
		w.maybeSpeculate()
		attn = w.attn.Load() // a DrainOrder just handled, or a Crash meanwhile
		if w.shutdownMsg || attn&attnCrash != 0 {
			return
		}
		if attn&attnLeave != 0 {
			reason := wire.LeaveReclaimed
			if w.drainOrdered {
				reason = wire.LeaveDrained
			}
			w.migrateAndLeave(reason)
			return
		}
		if w.paused {
			// Checkpoint in progress: keep draining messages, run and
			// steal nothing.
			w.drainOne(5 * time.Millisecond)
			continue
		}
		if cl, ok := w.popNext(); ok {
			w.execute(cl)
			continue
		}
		// No ready work: steal (the idle-initiated step).
		if w.thieveStep() {
			return // retired for lack of work
		}
	}
}

// popNext takes the next local task per the configured execution order.
func (w *Worker) popNext() (*Closure, bool) {
	if w.cfg.LocalOrder == LIFO {
		return w.dq.PopHead()
	}
	return w.dq.PopTail()
}

// execute runs one slice of cl's body: the whole task, or the stretch up to
// its next preempting Yield.
//
// The clock is read only when the reading is worth a task. An attempt is
// timed — two readings around each of its slices — when telemetry or
// tracing wants every task, while the Fn's track is still warming up, when
// the Fn's mean is at or above fineGrain (so every Fn the speculation rule
// can act on keeps exactly the track it always had), or as the
// timedEvery-th task since the last timed one. Only warm sub-fineGrain Fns
// are ever sampled, and for those the speculation deadline is floored at
// StealTimeout whatever the track says.
func (w *Worker) execute(cl *Closure) {
	cl.adopted = false
	e := w.fns.entry(cl.Fn)
	m := w.cfg.Metrics // one pointer check when telemetry is off
	traced := w.spans.Load() != nil && cl.TC.Sampled()
	if cl.preempted {
		// Resuming a locally preempted body: same attempt, already counted,
		// timed or not as its first slice was.
		cl.preempted = false
	} else {
		// First local slice of this attempt: only a run that started from
		// scratch (no checkpoint blob) measures the Fn's full cost.
		cl.freshLocal = cl.CkptSeq == 0 && len(cl.Ckpt) == 0
		cl.timed = m != nil || traced || !e.exec.warm() || e.exec.mean >= float64(fineGrain) ||
			w.sinceTimed >= timedEvery-1
		w.tasks.executed++
		if len(cl.Ckpt) > 0 {
			w.counters.CkptResumes.Add(1)
		}
	}
	var t0 time.Time
	if cl.timed {
		t0 = w.clk.Now()
	}
	w.ctx.w = w
	w.ctx.c = cl
	w.ctx.yielded = false
	e.fn(&w.ctx) // a panic unwinds to runLoop with ctx.c still naming the task
	w.ctx.c = nil
	if cl.timed {
		end := w.clk.Now() // one stamp: the histogram sample, the span's end, execNS
		d := end.Sub(t0)
		if m != nil {
			m.TaskExec().Observe(int64(d))
		}
		if traced {
			// Each execution slice is its own span — a preempted body
			// contributes several, and T1 sums them, so preemption does not
			// inflate the critical path. Link is the continuation the result
			// feeds: a join edge of the DAG.
			w.spans.Load().add(wire.Span{Kind: wire.SpanExec, Flags: cl.TC.Flags, Worker: w.id,
				Task: cl.ID, Parent: cl.TC.Parent, Link: cl.Cont.Task,
				Start: t0.UnixNano(), End: end.UnixNano()})
		}
		cl.execNS += int64(d)
		w.sinceTimed = 0
		w.housekeep = true
	} else {
		w.sinceTimed++
	}
	if w.ctx.yielded {
		// The body vacated at a Yield: the closure stays live with its
		// checkpoint attached, at the head so a drain packs it first (and
		// so a message-pending preemption resumes it right after the
		// mailbox is serviced, which the housekeeping pass does next).
		w.ctx.yielded = false
		w.housekeep = true
		w.counters.TasksPreempted.Add(1)
		if traced {
			w.RecordSpan(wire.Span{Kind: wire.SpanPreempt, Flags: cl.TC.Flags, Worker: w.id,
				Task: cl.ID, Parent: cl.TC.Parent})
		}
		cl.preempted = true
		w.dq.PushHead(cl)
		return
	}
	w.tasks.retired()
	if cl.timed && cl.freshLocal {
		// A started-from-scratch attempt is the clean sample of what this Fn
		// costs; bodies resumed from a stolen or migrated checkpoint would
		// contribute partial runs that drag the p99 estimate down. Slices
		// are summed across yields and local preemptions, so a body that
		// checkpoints mid-run still feeds the track its full cost.
		e.exec.observe(time.Duration(cl.execNS))
	}
	if cl.published {
		w.dropCkptPub(cl.ID)
	}
	w.closures.Put(cl) // the body ran to completion; nothing references cl now
}

// thieveStep performs one increment of thieving: ensure a steal request is
// outstanding, then wait for traffic. It returns true if the worker
// retired (parallelism shrank).
func (w *Worker) thieveStep() bool {
	now := time.Now()
	if w.stealPending && now.After(w.stealDeadline) {
		// The victim never answered; count a failure and move on. The
		// silence is also local evidence of degradation: blacklist the
		// victim for one decay interval so the next picks go elsewhere.
		w.stealPending = false
		w.consecFails++
		w.counters.FailedSteals.Add(1)
		if w.stealVictim != types.NoWorker {
			w.markSuspect(w.stealVictim, now, false)
			w.stealVictim = types.NoWorker
		}
		if w.spans.Load() != nil && !w.stealSpanID.Zero() {
			// A timed-out attempt is still idle time worth attributing;
			// Link stays zero (nothing was won).
			w.spans.Load().add(wire.Span{Kind: wire.SpanStealReq, Flags: wire.FlagSampled, Worker: w.id,
				Task: w.stealSpanID, Peer: types.NoWorker,
				Start: w.stealSentAt.UnixNano(), End: now.UnixNano()})
			w.stealSpanID = types.TaskID{}
		}
	}
	if !w.stealPending && !w.batchAt.IsZero() {
		// The first idle edge since a batch was adopted: what the batch
		// bought — its closures and all they spawned — sizes the next ask.
		w.stealWant = nextStealWant(w.stealWant, now.Sub(w.batchAt), w.stealRTT)
		w.batchAt = time.Time{}
	}
	if !w.stealPending {
		if w.shouldAskRetire() {
			if !w.stayAsked || time.Since(w.stayAskedAt) > 4*w.cfg.StealTimeout {
				w.sendTo(types.ClearinghouseID, wire.StayRequest{Worker: w.id})
				w.stayAsked = true
				w.stayAskedAt = time.Now()
			}
			// Wait for the verdict (or for work to show up).
			w.drainOne(w.cfg.StealTimeout)
			if w.retired && !w.shutdownMsg {
				// Approved: hand off any steal records and go.
				w.migrateAndLeave(wire.LeaveNoWork)
				return true
			}
			return false
		}
		victim, ok := w.pickVictim()
		if !ok {
			// Nobody to steal from; wait for membership or work.
			w.drainOne(10 * time.Millisecond)
			return false
		}
		if w.consecFails > 0 && w.cfg.StealBackoff > 0 {
			streak := w.consecFails
			if streak > 8 {
				streak = 8
			}
			w.drainOne(time.Duration(streak) * w.cfg.StealBackoff)
			if !w.dq.Empty() || w.shutdownMsg || w.attn.Load() != 0 {
				// Work arrived while pacing, or the wait brought a Shutdown,
				// a Reclaim, a Drain or a Crash: the loop handles it now
				// rather than after a request to a victim that may be gone.
				return false
			}
		}
		req := wire.StealRequest{Thief: w.id, Want: uint16(w.stealWant)}
		if w.spans.Load() != nil {
			// The attempt span is thief-local; the request frame carries no
			// trace context.
			w.stealSpanID = w.nextTaskID()
		}
		if w.sendTo(victim, req) == nil {
			w.counters.StealAttempts.Add(1)
			w.stealPending = true
			w.stealVictim = victim
			w.stealSentAt = time.Now()
			w.stealDeadline = w.stealSentAt.Add(w.cfg.StealTimeout)
		} else {
			// Victim vanished between view updates.
			w.removeVictim(victim)
			return false
		}
	}
	w.awaitSteal()
	return false
}

// shouldAskRetire reports whether the worker has failed enough consecutive
// steals, holds no work of its own, and so should ask the clearinghouse to
// retire. Steal records do not pin the worker — they migrate on the way
// out.
func (w *Worker) shouldAskRetire() bool {
	return w.cfg.MaxStealFailures > 0 &&
		w.consecFails >= w.cfg.MaxStealFailures &&
		w.tasks.inUse == 0 && w.dq.Empty() && w.join.len() == 0
}

// pickVictim chooses a steal victim among the live peers. Suspect victims
// are deprioritized: each candidate pool is filtered down to its healthy
// members first, falling back to the full pool only when everyone in it is
// suspect (see healthyOf).
func (w *Worker) pickVictim() (types.WorkerID, bool) {
	if len(w.victims) == 0 {
		return 0, false
	}
	victims := w.healthyOf(w.victims, &w.victimsScr)
	switch w.cfg.Victim {
	case RoundRobinVictim:
		v := victims[w.rrNext%len(victims)]
		w.rrNext++
		return v, true
	case SiteAwareVictim:
		// Steal near home first; only cross the slow network cut after
		// repeated local failures (then reset and come home again).
		if locals := w.healthyOf(w.localVictims, &w.localsScr); len(locals) > 0 && w.localFailures < localStealTries {
			return locals[w.rng.Intn(len(locals))], true
		}
		w.localFailures = 0
		return victims[w.rng.Intn(len(victims))], true
	default:
		return victims[w.rng.Intn(len(victims))], true
	}
}

func (w *Worker) removeVictim(v types.WorkerID) {
	for i, x := range w.victims {
		if x == v {
			w.victims = append(w.victims[:i], w.victims[i+1:]...)
			break
		}
	}
	for i, x := range w.localVictims {
		if x == v {
			w.localVictims = append(w.localVictims[:i], w.localVictims[i+1:]...)
			return
		}
	}
}

// drainAll handles every queued message without blocking, starting with
// envelopes a Yield pulled off the wire while a task body held the
// processor (see TaskCtx.Yield).
func (w *Worker) drainAll() {
	for len(w.stash) > 0 {
		env := w.stash[0]
		w.stash[0] = nil
		w.stash = w.stash[1:]
		w.handle(env)
	}
	for {
		select {
		case env, ok := <-w.recv:
			if !ok {
				w.shutdownMsg = true
				return
			}
			w.handle(env)
		case <-w.wakeCh:
			return
		default:
			return
		}
	}
}

// drainOne blocks up to d for one message (then drains the rest without
// blocking). A wake (Reclaim/Crash/retire verdict) also unblocks it. It is
// the worker's idle edge: whatever the transport was holding back goes out
// first. A worker that reads its own socket then waits on the socket
// itself, a slice at a time: the datagram it is waiting for readies this
// goroutine directly, with no reader goroutine and no channel in between.
func (w *Worker) drainOne(d time.Duration) {
	if d <= 0 || len(w.stash) > 0 {
		w.drainAll()
		return
	}
	if w.net != nil {
		w.net.Flush()
		for deadline := time.Now().Add(d); len(w.recv) == 0 && len(w.wakeCh) == 0 && w.net != nil; {
			left := time.Until(deadline)
			if left <= 0 {
				return
			}
			w.pollNet(min(left, netWaitSlice))
		}
		w.drainAll()
		return
	}
	// A message queued before the wait is taken without arming the timer.
	// Otherwise a thread descheduled past d finds the timer fired too, and
	// the select below may pick the tick over a Shutdown already waiting.
	if len(w.recv) > 0 {
		w.drainAll()
		return
	}
	// One timer serves every idle wait: a thief parks once per steal
	// attempt, and a fresh timer each time is an allocation plus a
	// timer-heap insert on the steal path.
	t := w.idleTimer
	if t == nil {
		t = time.NewTimer(d)
		w.idleTimer = t
	} else {
		t.Reset(d)
	}
	select {
	case env, ok := <-w.recv:
		if !ok {
			w.shutdownMsg = true
		} else {
			w.handle(env)
			w.drainAll()
		}
	case <-w.wakeCh:
	case <-t.C:
		return // fired and received: nothing left in the channel
	}
	if !t.Stop() {
		// Fired while we were busy: take the tick out so the next Reset
		// starts from an empty channel.
		select {
		case <-t.C:
		default:
		}
	}
}

// stealSpin is how long a thief polls for the steal reply before it parks.
// On an idle core the reply to a request comes back within a few
// microseconds of the victim's next scheduling point, while parking a
// thread-locked worker and waking it again costs two futex round trips (or,
// on a socket, a blocked read and the kernel's wake-up of a halted
// processor), one of them paid by the victim — several times the 20 µs a
// fine-grained task is worth. The window is long enough to cover a victim
// that is inside a short task body and short enough that an idle machine
// burns at most this much per steal attempt before it sleeps.
const stealSpin = 80 * time.Microsecond

// stealYieldRTTs is the K of the batched steal (DESIGN 5i rule 7). A thief
// measures what its last batch yielded — adoption to its next idle edge,
// so the descendants of a stolen subtree count — against that request's
// round trip: under K round trips it doubles its next ask, over 4K it
// halves it. A stolen tree node outlasts 4K round trips by far, so a thief
// of a tree keeps asking for one closure, the paper's steal; a stolen leaf
// worth less than its trip doubles its way up until a batch keeps the thief
// busy for K trips, which holds its steal overhead near 1/K of its time.
const stealYieldRTTs = 8

// maxStealWant caps an ask. On a flat tree of 100-byte leaves the victim's
// byte budget (wire.MaxStealBatchBytes, about 320 of them) binds first.
const maxStealWant = 1024

// nextStealWant resizes a thief's ask from what its last batch yielded.
func nextStealWant(want int, yield, rtt time.Duration) int {
	switch {
	case yield < stealYieldRTTs*rtt:
		return min(2*want, maxStealWant)
	case yield > 4*stealYieldRTTs*rtt:
		return max(want/2, 1)
	}
	return want
}

// runningWorkers counts the workers of this process that are inside Run.
// It is what a worker can observe of the processors it competes for. A
// spinning thief needs nobody else to run in order to see its reply — it
// reads its own inbox, and over a socket its own socket — but when workers
// outnumber Ps it would be holding the P its victim needs to produce that
// reply, so it parks at once instead.
var runningWorkers atomic.Int32

// awaitSteal waits for the answer to the outstanding steal request: a
// bounded poll first, then drainOne's timed park. The thief is idle, so
// this is where everything it sent on the way here — the last task's
// confirm and result among it — stops waiting for company. The poll reads
// channel lengths and the worker's own socket, so it takes no lock the
// sender needs, and a thief still polling when the reply lands costs the
// victim no wake-up.
func (w *Worker) awaitSteal() {
	if w.net != nil {
		w.net.Flush()
	}
	if int(runningWorkers.Load()) <= w.procs {
		for spinUntil := time.Now().Add(stealSpin); time.Now().Before(spinUntil); {
			w.pollNet(0)
			if len(w.recv) > 0 || len(w.wakeCh) > 0 {
				w.drainAll()
				return
			}
		}
	}
	w.drainOne(time.Until(w.stealDeadline))
}

// handle dispatches one inbound message.
func (w *Worker) handle(env *wire.Envelope) {
	if p, ok := env.Payload.(wire.PeerGone); ok {
		// Transport-synthesized and local-only: keep it out of the message
		// accounting (the checkpoint quiesce balances sent/received
		// matrices, and nobody "sent" this).
		w.onPeerGone(p.Worker)
		return
	}
	w.counters.MessagesReceived.Add(1)
	if env.From != types.ClearinghouseID {
		w.msgRecvFr[env.From]++
	} else if w.chDown {
		w.chRecovered()
	}
	// A Conn delivers a hot message either as the struct its sender built
	// (in-memory fabric) or as a view of the received frame (UDP). Both
	// forms are a field extraction into the same method; no message has a
	// second body.
	if v, ok := env.Payload.(*wire.View); ok {
		if w.handleView(env, v) {
			return
		}
		// Not a hot message: handleView materialized the payload in place,
		// so the struct dispatch below applies unchanged.
	}
	switch p := env.Payload.(type) {
	case wire.RegisterReply:
		w.registered = true
		if w.spans.Load() != nil && p.RecvNS != 0 && w.regSentNS != 0 {
			// NTP-style one-sample estimate: the clearinghouse stamped the
			// registration mid-round-trip, so the offset between its clock
			// and ours is its stamp minus our midpoint. The collector
			// further clamps this with heartbeat one-way delays.
			w.spans.Load().setOffset(p.RecvNS - (w.regSentNS+time.Now().UnixNano())/2)
		}
		w.applyView(p.View)
	case wire.Update:
		w.applyView(p.View)
	case wire.SpawnRoot:
		w.spawnRoot(p)
	case wire.StealRequest:
		w.grantSteal(p.Thief, int(p.Want))
	case wire.StealReply:
		batch := w.batchScr[:0]
		if p.OK {
			batch = append(batch, w.closureFromWire(p.Task))
			for i := range p.More {
				batch = append(batch, w.closureFromWire(p.More[i]))
			}
		}
		w.batchScr = batch
		w.onStealReply(env.From, p.OK, batch)
	case wire.StealConfirm:
		w.onStealConfirm(p.Record, p.N)
	case wire.Arg:
		w.deliver(p.Cont, p.Val, p.Crossed, p.TC)
	case wire.Migrate:
		w.adoptMigration(env.From, p)
	case wire.MigrateAck:
		w.migrateAck = true
	case wire.WorkerDown:
		w.onWorkerDown(p.Worker, p.Ckpts, p.TC)
	case wire.SuspectSet:
		w.onSuspectSet(p)
	case wire.DrainOrder:
		// The clearinghouse judged this worker persistently degraded: leave
		// on a planned schedule, shipping the deque and checkpoints to a
		// healthy adopter (the same path an owner-return reclaim takes).
		w.drainOrdered = true
		w.setAttn(attnLeave)
	case wire.DrainAck:
		w.drainAcked = true
		if p.OK {
			w.drainVictim = p.Victim
			// The chosen victim may postdate our last membership view;
			// install its address so the handoff routes (no-op for
			// in-memory fabrics or an empty address).
			w.conn.SetPeer(p.Victim, p.Addr)
			w.hostOf[p.Victim] = p.Victim
		} else {
			w.drainVictim = types.NoWorker
		}
	case wire.StayReply:
		w.stayAsked = false
		if p.Stay {
			w.consecFails = 0
			// Told to stay by a clearinghouse that still counts the job as
			// running, although the job's result left this worker: the
			// result never got in. A clearinghouse that crashes with the Arg
			// still in its inbox loses it without any send of ours failing,
			// so no outage was noticed and nothing re-sent it.
			w.resendRootResult()
		} else {
			w.retired = true
		}
	case wire.Pause:
		w.paused = true
		w.sendTo(types.ClearinghouseID, wire.PauseAck{
			Seq: p.Seq, Worker: w.id,
			SentTo: copyCounts(w.msgSentTo), RecvFr: copyCounts(w.msgRecvFr),
		})
	case wire.SnapshotRequest:
		w.sendTo(types.ClearinghouseID, w.snapshotReply(p.Seq))
	case wire.Resume:
		w.paused = false
	case wire.Shutdown:
		w.shutdownMsg = true
	default:
		// Macro-level traffic never reaches workers; ignore stray types.
	}
}

// handleView dispatches the hot-path messages straight off a zero-copy
// view — no intermediate structs, no per-message allocation beyond the
// pooled closures a successful steal adopts. Returns true when the message
// was consumed (and the envelope freed); false when the payload was
// materialized in place so the struct dispatch in handle applies.
func (w *Worker) handleView(env *wire.Envelope, v *wire.View) bool {
	if av, ok := v.AsArg(); ok {
		// A corrupt value body is dropped like a garbage frame.
		if val, err := av.Val(); err == nil {
			w.deliver(av.Cont(), val, av.Crossed(), av.TC())
		}
	} else if sr, ok := v.AsStealRequest(); ok {
		w.grantSteal(sr.Thief(), int(sr.Want()))
	} else if rp, ok := v.AsStealReply(); ok {
		granted := rp.OK()
		var batch []*Closure
		if granted {
			batch = w.batchFromView(rp)
		}
		w.onStealReply(env.From, granted, batch)
	} else if sc, ok := v.AsStealConfirm(); ok {
		w.onStealConfirm(sc.Record(), sc.N())
	} else if err := env.Materialize(); err == nil {
		return false
	}
	// Consumed, or corrupt and dropped (Materialize leaves the view intact
	// on error).
	env.Free()
	return true
}

// batchFromView copies a granted batch out of the reply frame onto pooled
// closures. One closure that does not decode loses the whole batch, which
// onStealReply treats as a reply lost in flight: nothing is adopted or
// confirmed, and the victim's unconfirmed records redo every closure.
func (w *Worker) batchFromView(rp wire.StealReplyView) []*Closure {
	batch := w.batchScr[:0]
	for it := rp.Tasks(); ; {
		cv, ok := it.Next()
		if !ok {
			break
		}
		cl, err := w.closureFromView(cv)
		if err != nil {
			for _, c := range batch {
				w.closures.Put(c)
			}
			return batch[:0]
		}
		batch = append(batch, cl)
	}
	w.batchScr = batch
	return batch
}

// onStealReply takes the answer to the outstanding steal request: ok with
// the stolen batch already copied out of the message, or a refusal. A
// granted steal whose batch could not be decoded arrives as ok with no
// closures and is not adopted: the victim's unconfirmed steal records redo
// the tasks when it gives up on us, exactly as if the reply had been lost
// in flight.
func (w *Worker) onStealReply(from types.WorkerID, ok bool, batch []*Closure) {
	// Observe the round trip only for a still-pending request: a reply
	// straggling in after the timeout fired no longer pairs with
	// stealSentAt.
	if w.stealPending && !w.stealSentAt.IsZero() {
		now := time.Now()
		rtt := now.Sub(w.stealSentAt)
		if m := w.cfg.Metrics; m != nil {
			m.StealRTT().Observe(int64(rtt))
		}
		if w.spans.Load() != nil && !w.stealSpanID.Zero() {
			sp := wire.Span{Kind: wire.SpanStealReq, Flags: wire.FlagSampled, Worker: w.id,
				Task: w.stealSpanID, Peer: from,
				Start: w.stealSentAt.UnixNano(), End: now.UnixNano()}
			if len(batch) > 0 {
				sp.Link = batch[0].ID // the oldest task this attempt won
			}
			w.spans.Load().add(sp)
			w.stealSpanID = types.TaskID{}
		}
		if len(batch) > 0 {
			w.stealRTT, w.batchAt = rtt, now
		}
	}
	w.stealPending = false
	w.stealVictim = types.NoWorker
	if ok {
		w.dbgRepliesOK.Add(1)
		w.localFailures = 0
	} else {
		w.dbgRepliesFail.Add(1)
		if w.siteOf[from] == w.cfg.Site {
			w.localFailures++
		}
	}
	switch {
	case w.forwardTo != types.NoWorker:
		// We already migrated away. Leave the tasks unconfirmed: the
		// victim's steal records redo them when our tombstone lands.
		for _, cl := range batch {
			w.closures.Put(cl)
		}
	case !ok:
		w.consecFails++
		w.counters.FailedSteals.Add(1)
	case len(batch) > 0:
		w.adoptBatch(batch)
	}
}

// onStealConfirm marks n steal records confirmed, the ids minted back to
// back from first: the thief holds the tasks.
func (w *Worker) onStealConfirm(first types.TaskID, n uint16) {
	for i := uint64(0); i < uint64(n); i++ {
		if rec, ok := w.records[types.TaskID{Worker: first.Worker, Seq: first.Seq + i}]; ok {
			rec.confirmed = true
		}
	}
}

// applyView installs a fresh membership view: the host map for routing and
// the victim list for stealing.
func (w *Worker) applyView(v wire.MembershipView) {
	if v.Epoch < w.view.Epoch {
		return // stale
	}
	w.view = v
	w.hostOf = make(map[types.WorkerID]types.WorkerID, len(v.Members)+1)
	w.siteOf = make(map[types.WorkerID]int32, len(v.Members))
	w.victims = w.victims[:0]
	w.localVictims = w.localVictims[:0]
	for _, m := range v.Members {
		w.hostOf[m.Worker] = m.HostedBy
		w.siteOf[m.Worker] = m.Site
		if m.Worker == m.HostedBy && m.Worker != w.id && !w.dead[m.Worker] {
			w.victims = append(w.victims, m.Worker)
			if m.Site == w.cfg.Site {
				w.localVictims = append(w.localVictims, m.Worker)
			}
		}
		w.conn.SetPeer(m.Worker, m.Addr)
	}
	w.hostOf[w.id] = w.id
	// Redo any unconfirmed steal whose thief is positively known to have
	// departed (tombstoned in the view, or crashed): the reply carrying
	// the task was lost in flight, so the work exists nowhere else. A
	// thief merely absent from the view may simply not have been
	// announced yet — redoing then would duplicate live work.
	redone := 0
	for _, rec := range w.records {
		if rec.confirmed || rec.thief == w.id {
			continue
		}
		h, known := w.hostOf[rec.thief]
		departed := (known && h != rec.thief) || w.dead[rec.thief]
		if !departed {
			continue
		}
		w.redoRecord(rec)
		redone++
	}
	if redone > 0 {
		w.counters.RedoBatches.Add(1)
	}
	// A fresh view may make unsent args routable.
	w.retryUnsent(true)
}

// resolveHost maps the worker that minted a task id to the worker that
// currently hosts that task's state.
func (w *Worker) resolveHost(minter types.WorkerID) (types.WorkerID, bool) {
	if minter == types.ClearinghouseID {
		return types.ClearinghouseID, true
	}
	h, ok := w.hostOf[minter]
	if !ok {
		return types.NoWorker, false
	}
	// Flattened by the clearinghouse, but tolerate one level of lag.
	if h != minter {
		if h2, ok2 := w.hostOf[h]; ok2 && h2 != h {
			h = h2
		}
	}
	return h, true
}

// nextTaskID mints a task id unique across the job.
func (w *Worker) nextTaskID() types.TaskID {
	w.seq++
	return types.TaskID{Worker: w.id, Seq: w.seq}
}

// spawn makes cl — a pooled closure with its arguments already in
// place — a ready task of fn and enqueues it at the head of the deque.
func (w *Worker) spawn(cl *Closure, fn string, cont types.Continuation, noSteal bool, tc wire.TraceCtx) {
	for i, a := range cl.Args {
		if a == nil {
			panic(fmt.Sprintf("core: spawn %s: nil argument %d", fn, i))
		}
	}
	cl.ID = w.nextTaskID()
	cl.Fn = fn
	cl.Cont = cont
	cl.NoSteal = noSteal
	cl.TC = tc
	w.tasks.created()
	w.dq.PushHead(cl)
}

func (w *Worker) spawnRoot(p wire.SpawnRoot) {
	cont := types.Continuation{Task: types.TaskID{Worker: types.ClearinghouseID, Seq: 1}}
	// The root is where the head-based sampling decision is made; the
	// whole DAG inherits it through propagated trace contexts.
	var tc wire.TraceCtx
	if w.spans.Load() != nil {
		if s := w.cfg.SpanSample; s <= 0 || s >= 1 || w.rng.Float64() < s {
			tc.Flags = wire.FlagSampled
		}
	}
	cl := w.closures.Get()
	cl.setArgs(p.Args)
	w.spawn(cl, p.Fn, cont, true, tc)
}

// deliver routes a result value to a continuation: locally into a waiting
// slot or steal record, or across the network as an Arg message. tc is the
// sender's trace context; it rides on every Arg the value takes so remote
// joins keep their DAG edge.
func (w *Worker) deliver(cont types.Continuation, v types.Value, crossed bool, tc wire.TraceCtx) {
	if cont.None() {
		return
	}
	w.ensureSpans(tc)
	// Local state first: after adopting migrated tasks we may host tasks
	// the view does not map to us yet.
	if len(w.records) != 0 { // empty unless a grant or a migration left a record here
		if rec, ok := w.records[cont.Task]; ok && cont.Slot == 0 {
			delete(w.records, cont.Task)
			w.deliver(rec.realCont, v, crossed, tc)
			return
		}
	}
	if cl := w.join.Get(cont.Task); cl != nil {
		w.fill(cl, cont.Slot, v, crossed, true)
		return
	}
	host, ok := w.resolveHost(cont.Task.Worker)
	switch {
	case !ok:
		// Unknown minter: view lag or death. Park for retry; the retry
		// path drops it once the minter is known dead.
		w.unsent = append(w.unsent, wire.Arg{Cont: cont, Val: v, Crossed: crossed, TC: tc})
	case host == w.id:
		// Hosted here but not in any table. While we are migrating the
		// task may be in the outbound payload; once we have migrated, it
		// lives with the adopter. Otherwise it is gone (orphaned by crash
		// recovery).
		switch {
		case w.migrating:
			w.unsent = append(w.unsent, wire.Arg{Cont: cont, Val: v, Crossed: crossed, TC: tc})
		case w.forwardTo != types.NoWorker:
			if err := w.sendTo(w.forwardTo, wire.Arg{Cont: cont, Val: v, Crossed: true, TC: tc}); err != nil {
				w.orphanDrops.Add(1)
			}
		default:
			w.orphanDrops.Add(1)
		}
	case host == types.NoWorker:
		w.orphanDrops.Add(1)
	default:
		arg := wire.Arg{Cont: cont, Val: v, Crossed: true, TC: tc}
		err := w.sendTo(host, arg)
		if errors.Is(err, phishnet.ErrTooLarge) {
			// No retry can carry it, so it is neither parked nor retained:
			// say why the task waiting on it will never run, once.
			w.print(fmt.Sprintf("worker %d: result for task %v dropped: %v\n", w.id, cont.Task, err))
			return
		}
		if host == types.ClearinghouseID {
			// The root result. Retain a copy for re-send after a
			// clearinghouse restart; the clearinghouse deduplicates.
			root := arg
			w.rootResult = &root
		}
		if err != nil {
			w.unsent = append(w.unsent, arg)
		}
	}
}

// fillSlot looks up the waiting task cont names and fills its slot: the
// entry point for a caller that holds only a continuation (Preset; deliver
// has the closure in hand already and calls fill).
func (w *Worker) fillSlot(cont types.Continuation, v types.Value, crossed, countSynch bool) {
	cl := w.join.Get(cont.Task)
	if cl == nil {
		w.orphanDrops.Add(1)
		return
	}
	w.fill(cl, cont.Slot, v, crossed, countSynch)
}

// fill writes v into a waiting task's argument slot, maintains the join
// counter, and enqueues the task when it becomes ready. countSynch
// distinguishes real result deliveries (synchronizations, per the paper's
// Table 2) from presets.
func (w *Worker) fill(cl *Closure, slot int32, v types.Value, crossed, countSynch bool) {
	if slot < 0 || int(slot) >= len(cl.Args) || cl.Args[slot] != nil {
		// Slot out of range (corrupt) or duplicate delivery (redo race):
		// drop rather than corrupt the join counter.
		w.orphanDrops.Add(1)
		return
	}
	cl.Args[slot] = v
	cl.Missing--
	if countSynch {
		w.tasks.synchs++
		if crossed {
			w.counters.NonLocalSynchs.Add(1)
		}
	}
	if cl.Missing == 0 {
		w.join.Del(cl)
		w.dq.PushHead(cl)
	}
}

// retryUnsent re-attempts parked args. force retries regardless of the
// pacing interval (called when a new view arrives).
func (w *Worker) retryUnsent(force bool) {
	if len(w.unsent) == 0 || w.migrating {
		return
	}
	if !force && time.Since(w.lastRetry) < retryUnsentEvery {
		return
	}
	w.lastRetry = time.Now()
	pending := w.unsent
	w.unsent = nil
	for _, a := range pending {
		if w.dead[a.Cont.Task.Worker] {
			w.orphanDrops.Add(1)
			continue
		}
		w.deliver(a.Cont, a.Val, a.Crossed, a.TC)
	}
}

// grantSteal answers a thief that asked for want closures: hand over a
// batch from the configured steal end of the deque, keeping one steal
// record per closure for fault tolerance, or report failure if there is
// nothing stealable. The batch is what takeStealable pops. The records' ids
// are minted back to back, so the thief's one StealConfirm names them all.
// Each grant span is keyed by its task's own sampling decision, which
// travels inside the closure.
func (w *Worker) grantSteal(thief types.WorkerID, want int) {
	var t0 time.Time
	if w.spans.Load() != nil {
		t0 = time.Now()
	}
	batch, reply := w.takeStealable(max(want, 1))
	if len(batch) == 0 {
		w.sendTo(thief, reply)
		return
	}
	now := time.Now()
	first := w.seq + 1
	for i, cl := range batch {
		task := &reply.Task
		if i > 0 {
			task = &reply.More[i-1]
		}
		id := w.nextTaskID()
		task.Cont = types.Continuation{Task: id}
		w.records[id] = &stealRecord{id: id, realCont: cl.Cont, task: *task, thief: thief, grantedAt: now}
	}
	if err := w.sendTo(thief, reply); err != nil {
		// The grant cannot leave — the thief is unreachable, or the closure
		// is more than the transport can carry (phishnet.ErrTooLarge: a
		// 20 000-argument join over UDP). Revert the whole batch as if the
		// steal never happened, and tell a thief that can still hear us, so
		// it does not wait out its timeout and hold the silence against this
		// worker. The batch goes back to the steal end youngest first, so the
		// deque is as it was found.
		for i := len(batch) - 1; i >= 0; i-- {
			delete(w.records, types.TaskID{Worker: w.id, Seq: first + uint64(i)})
			if w.cfg.StealFrom == StealHead {
				w.dq.PushHead(batch[i])
			} else {
				w.dq.PushTail(batch[i])
			}
		}
		w.sendTo(thief, wire.StealReply{OK: false})
		return
	}
	var end int64
	if w.spans.Load() != nil {
		end = time.Now().UnixNano()
	}
	for i, cl := range batch {
		task := &reply.Task
		if i > 0 {
			task = &reply.More[i-1]
		}
		if end != 0 && task.TC.Sampled() {
			// The grant span doubles as the DAG's steal-record alias: Task is
			// the record id the stolen closure's continuation now targets,
			// Parent the real continuation it stands in for, Link the stolen
			// task. The analysis resolves exec-span Link chains through it.
			w.spans.Load().add(wire.Span{Kind: wire.SpanStealGrant, Flags: task.TC.Flags, Worker: w.id,
				Task: task.Cont.Task, Parent: cl.Cont.Task, Link: task.ID, Peer: thief,
				Start: t0.UnixNano(), End: end})
		}
		w.tasks.retired() // the task left this worker
		if cl.published {
			w.dropCkptPub(cl.ID) // a preempted body, stolen: the thief republishes
		}
		w.closures.Put(cl) // the record holds its own copy of the args
	}
	w.dbgGrants.Add(int64(len(batch)))
}

// takeStealable pops a batch for a thief that asked for want closures from
// the steal end, oldest first, and returns it with the reply that carries
// it (OK false when it is empty). The batch holds at most want closures,
// at most half the stealable run there — the closures before the first one
// that is pinned or that this worker stole and runs next (adopted) — but
// one when the run is not empty; the run is counted only as far as 2·want.
// A batch of more than one is sized as it grows, with the one closure
// encoder, and stops before it would pass wire.MaxStealBatchBytes; the
// first closure goes whatever its size.
func (w *Worker) takeStealable(want int) ([]*Closure, wire.StealReply) {
	fromHead := w.cfg.StealFrom == StealHead
	n, run := w.dq.Len(), 0
	for run < n && run < 2*want {
		i := n - 1 - run
		if fromHead {
			i = run
		}
		if cl := w.dq.At(i); cl.NoSteal || cl.adopted {
			break
		}
		run++
	}
	take := max(min(want, run/2), min(run, 1))
	batch, reply := w.grantScr[:0], wire.StealReply{OK: take > 0}
	for size := 0; len(batch) < take; {
		end := w.dq.Len() - 1
		if fromHead {
			end = 0
		}
		cl := w.dq.At(end)
		task := cl.toWire()
		if take > 1 {
			var err error
			w.grantBuf, err = wire.AppendClosure(w.grantBuf[:0], &task)
			if size += len(w.grantBuf); len(batch) > 0 && (err != nil || size > wire.MaxStealBatchBytes) {
				break
			}
		}
		if fromHead {
			w.dq.PopHead()
		} else {
			w.dq.PopTail()
		}
		if len(batch) == 0 {
			reply.Task = task
			if take > 1 {
				// Room for as many closures of the first one's size as fit.
				reply.More = make([]wire.Closure, 0, min(take-1, wire.MaxStealBatchBytes/max(size, 1)))
			}
		} else {
			reply.More = append(reply.More, task)
		}
		batch = append(batch, cl)
	}
	if cap(w.grantBuf) > wire.MaxStealBatchBytes {
		w.grantBuf = nil // a wide closure was sized: do not keep its buffer
	}
	w.grantScr = batch
	return batch, reply
}

// adoptBatch installs a batch won from a victim and confirms receipt of all
// of it with one StealConfirm: each stolen task's continuation targets one
// of the victim's steal records, minted back to back, which is how we know
// where to confirm and what. The batch goes on the head oldest first, so
// the youngest runs next and the oldest waits at the steal end, where a
// third worker can still take it. Only the closure run next is marked
// adopted (DESIGN 5i rule 5).
func (w *Worker) adoptBatch(batch []*Closure) {
	victim := batch[0].Cont.Task.Worker
	w.dbgAdopts.Add(int64(len(batch)))
	w.counters.TasksStolen.Add(int64(len(batch)))
	if w.siteOf[victim] != w.cfg.Site {
		w.counters.RemoteSteals.Add(int64(len(batch)))
	}
	var now int64
	for _, cl := range batch {
		w.ensureSpans(cl.TC)
		w.tasks.adopted()
		if w.spans.Load() != nil && cl.TC.Sampled() {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			w.spans.Load().add(wire.Span{Kind: wire.SpanStealAdopt, Flags: cl.TC.Flags, Worker: w.id,
				Task: cl.ID, Parent: cl.Cont.Task, Peer: victim, Start: now, End: now})
		}
		if cl.ready() {
			w.dq.PushHead(cl)
		} else {
			// Only ready tasks are stealable; tolerate anyway.
			w.join.Put(cl)
		}
	}
	w.consecFails = 0
	if w.cfg.LocalOrder == LIFO {
		batch[len(batch)-1].adopted = true
	} else {
		batch[0].adopted = true
	}
	if host, ok := w.resolveHost(victim); ok && host != w.id {
		w.sendTo(host, wire.StealConfirm{Record: batch[0].Cont.Task, N: uint16(len(batch))})
	}
}

// adoptMigration takes over a departing worker's closures and records.
func (w *Worker) adoptMigration(from types.WorkerID, m wire.Migrate) {
	if w.forwardTo != types.NoWorker {
		// We have already left; withholding the ack makes the sender try
		// another adopter.
		return
	}
	for _, wc := range m.Closures {
		cl := w.closureFromWire(wc)
		w.ensureSpans(cl.TC)
		w.tasks.adopted()
		if cl.ready() {
			// Behind local work: migrated tasks are old, and the paper's
			// locality argument says fresh local work should run first.
			w.dq.PushTail(cl)
		} else {
			w.join.Put(cl)
		}
	}
	for _, wr := range m.Records {
		rec := recordFromWire(wr)
		if w.dead[rec.thief] {
			// The thief crashed before the record reached us; the
			// migrating worker may have packed the record before hearing
			// about the crash. Redo immediately.
			w.redoRecord(rec)
		}
		w.records[rec.id] = rec
	}
	w.sendTo(from, wire.MigrateAck{Count: len(m.Closures) + len(m.Records)})
}

// redoRecord re-enqueues the local copy of a stolen task whose thief will
// never deliver; the record stays so the redone result still funnels
// through it (and duplicates are dropped).
func (w *Worker) redoRecord(rec *stealRecord) {
	if w.spans.Load() != nil && rec.task.TC.Sampled() {
		now := time.Now().UnixNano()
		w.spans.Load().add(wire.Span{Kind: wire.SpanRedo, Flags: rec.task.TC.Flags, Worker: w.id,
			Task: rec.task.ID, Parent: rec.id, Peer: rec.thief, Start: now, End: now})
	}
	rec.thief = w.id
	rec.confirmed = true
	cl := w.closureFromWire(rec.task)
	w.tasks.adopted()
	w.counters.TasksRedone.Add(1)
	if cl.ready() {
		w.dq.PushTail(cl)
	} else {
		w.join.Put(cl)
	}
}

// onWorkerDown redoes work recorded against a crashed thief and drops
// state whose consumers died with it. ckpts carries the dead worker's last
// published checkpoints (when the clearinghouse announced the crash): a
// steal-record copy older than a published blob is refreshed before the
// redo, so re-execution resumes from the blob instead of from zero. tc's
// sampling flags are merged into the redone closures — a clearinghouse
// with span collection on marks every crash announcement sampled, because
// redo work is exactly the overhead the trace analysis attributes.
func (w *Worker) onWorkerDown(dead types.WorkerID, ckpts []wire.TaskCkpt, tc wire.TraceCtx) {
	w.ensureSpans(tc)
	if dead == w.id {
		return // a false positive about ourselves; the clearinghouse
		// already dropped us, so we will fail to matter either way
	}
	w.dead[dead] = true
	w.removeVictim(dead)
	w.conn.DropPeer(dead)
	w.refreshRecordCkpts(dead, ckpts)
	// Redo: re-enqueue the copy of every task we lent that thief. The
	// record stays; the redone task's result still funnels through it.
	redone := 0
	for _, rec := range w.records {
		if rec.thief == dead {
			rec.task.TC.Flags |= tc.Flags
			w.redoRecord(rec)
			redone++
		}
	}
	if redone > 0 {
		w.counters.RedoBatches.Add(1)
	}
	w.purgeOrphans()
}

// purgeOrphans drops local tasks and records whose results have nowhere to
// go because every route leads to a dead worker. Purely an optimization:
// orphaned results are also dropped at delivery time.
func (w *Worker) purgeOrphans() {
	deadCont := func(c types.Continuation) bool {
		if c.None() {
			return false
		}
		minter := c.Task.Worker
		if minter == types.ClearinghouseID || minter == w.id {
			return false
		}
		if w.dead[minter] {
			if h, ok := w.hostOf[minter]; !ok || h == minter || w.dead[h] {
				return true
			}
		}
		return false
	}
	for _, cl := range w.join.all() {
		if deadCont(cl.Cont) {
			w.join.Del(cl)
			w.tasks.retired()
			w.closures.Put(cl)
		}
	}
	if w.dq.Len() > 0 {
		keep := w.dq.Drain()
		for _, cl := range keep {
			if deadCont(cl.Cont) {
				w.tasks.retired()
				w.closures.Put(cl)
				continue
			}
			w.dq.PushTail(cl)
		}
	}
	for id, rec := range w.records {
		if deadCont(rec.realCont) {
			delete(w.records, id)
		}
	}
}

// migrateAndLeave ships every live closure and record to a peer, then
// unregisters. With no live peer the state cannot be saved; the worker
// reports itself crashed so the clearinghouse triggers the redo path.
//
// Results addressed to the departing tasks keep arriving throughout: they
// are parked while the payload is in flight, flushed to the adopter once
// it acknowledges, and forwarded directly during a short linger before the
// endpoint finally closes.
func (w *Worker) migrateAndLeave(reason wire.LeaveReason) {
	w.leaveReason = reason
	if w.tasks.inUse == 0 && w.join.len() == 0 && w.dq.Empty() && len(w.records) == 0 {
		w.unregister(reason, types.NoWorker)
		return
	}
	w.migrating = true
	// Ask the clearinghouse to pick the least-loaded adopter first (the
	// drain protocol). If the clearinghouse is down or slow, fall back to
	// the random local choice — the handoff still works, it just loses the
	// load-aware placement.
	preferred, havePref := w.requestDrainVictim()
	tried := make(map[types.WorkerID]bool)
	for attempt := 0; attempt < 8; attempt++ {
		var target types.WorkerID
		var ok bool
		if havePref && !tried[preferred] && !w.dead[preferred] {
			target, ok = preferred, true
			havePref = false
		} else {
			target, ok = w.pickUntried(tried)
		}
		if !ok {
			break
		}
		tried[target] = true
		switch w.shipStateTo(target) {
		case shipTargetGone:
			continue // positively not delivered; safe to try another
		case shipTimeout:
			// The target may yet adopt the payload; shipping elsewhere
			// would split the state across two adopters. Declare the
			// state lost instead — the crash-recovery path redoes it.
			w.unregister(wire.LeaveCrash, types.NoWorker)
			w.leaveReason = wire.LeaveCrash
			return
		}
		// Shipped. Stragglers can land between packing and the ack — a
		// stolen task whose reply was in flight, a SpawnRoot, another
		// worker's migration. Keep re-shipping to the SAME adopter until
		// the tables stay empty.
		settled := false
		for round := 0; round < 16; round++ {
			if w.shutdownMsg || (w.dq.Empty() && w.join.len() == 0 && len(w.records) == 0) {
				settled = true
				break
			}
			if w.shipStateTo(target) != shipOK {
				break
			}
		}
		if !settled {
			// The adopter stopped acking mid-stream; the remainder of the
			// state cannot be placed safely.
			w.unregister(wire.LeaveCrash, types.NoWorker)
			w.leaveReason = wire.LeaveCrash
			return
		}
		w.unregister(reason, target)
		w.lingerForward(target)
		return
	}
	// No adopter: our state dies with us. Tell the clearinghouse the
	// truth so recovery kicks in.
	w.unregister(wire.LeaveCrash, types.NoWorker)
	w.leaveReason = wire.LeaveCrash
}

// shipResult is the outcome of one migration shipment.
type shipResult int

const (
	// shipOK: the adopter acknowledged; the state now lives there.
	shipOK shipResult = iota
	// shipTargetGone: the payload positively did not reach the target
	// (send failed, or the target died/departed before acknowledging);
	// the state was restored locally and another target may be tried.
	shipTargetGone
	// shipTimeout: no acknowledgment and no evidence of death — the
	// payload may or may not be adopted later, so re-shipping elsewhere
	// is unsafe.
	shipTimeout
)

// migrateAckWait bounds how long a migrating worker waits for adoption; it
// is deliberately generous, because switching adopters on a tight timeout
// risks two workers adopting the same tasks.
func (w *Worker) migrateAckWait() time.Duration {
	d := 10 * w.cfg.StealTimeout
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// targetDeparted reports whether the migration target is positively known
// dead or departed (so an unacknowledged payload died with it).
func (w *Worker) targetDeparted(target types.WorkerID) bool {
	if w.dead[target] {
		return true
	}
	h, known := w.hostOf[target]
	return known && h != target
}

// shipStateTo packs every live closure and record into one Migrate payload
// and sends it to target, waiting for the acknowledgment.
func (w *Worker) shipStateTo(target types.WorkerID) shipResult {
	var t0 time.Time
	if w.spans.Load() != nil {
		t0 = time.Now()
	}
	payload := wire.Migrate{From: w.id}
	var packed []*Closure
	for _, cl := range w.dq.Drain() {
		packed = append(packed, cl)
		payload.Closures = append(payload.Closures, cl.toWire())
	}
	for _, cl := range w.join.all() {
		packed = append(packed, cl)
		payload.Closures = append(payload.Closures, cl.toWire())
		w.join.Del(cl)
	}
	var packedRecs []*stealRecord
	for id, rec := range w.records {
		packedRecs = append(packedRecs, rec)
		payload.Records = append(payload.Records, rec.toWire())
		delete(w.records, id)
	}
	restore := func() {
		for _, cl := range packed {
			if cl.ready() {
				w.dq.PushTail(cl)
			} else {
				w.join.Put(cl)
			}
		}
		for _, rec := range packedRecs {
			w.records[rec.id] = rec
		}
	}
	if len(payload.Closures) == 0 && len(payload.Records) == 0 {
		return shipOK
	}
	w.migrateAck = false
	if w.sendTo(target, payload) != nil {
		restore()
		return shipTargetGone
	}
	deadline := time.Now().Add(w.migrateAckWait())
	for time.Now().Before(deadline) && !w.migrateAck && !w.attnHas(attnCrash) && !w.shutdownMsg {
		if w.targetDeparted(target) {
			restore()
			return shipTargetGone
		}
		w.drainOne(time.Until(deadline))
	}
	if w.shutdownMsg && !w.migrateAck {
		// The job completed while we were packing; the state no longer
		// matters. Report success so the caller unwinds normally.
		return shipOK
	}
	if !w.migrateAck {
		if w.targetDeparted(target) {
			restore()
			return shipTargetGone
		}
		return shipTimeout
	}
	if w.spans.Load() != nil {
		// One drain-handoff span per acknowledged shipment; its id comes
		// from the worker's own sequence, like a steal record's.
		w.spans.Load().add(wire.Span{Kind: wire.SpanDrain, Flags: wire.FlagSampled, Worker: w.id,
			Task: w.nextTaskID(), Peer: target,
			Start: t0.UnixNano(), End: time.Now().UnixNano()})
	}
	for _, cl := range packed {
		w.tasks.retired()
		w.counters.TasksMigrated.Add(1)
		if cl.published {
			// The adopter republishes the blob itself once the task yields
			// there; stop advertising it from a worker that no longer hosts
			// the task.
			w.dropCkptPub(cl.ID)
		}
		w.closures.Put(cl) // the adopter acknowledged its own copy
	}
	return shipOK
}

// drainAckWait bounds how long a departing worker waits for the
// clearinghouse's victim choice before falling back to picking its own:
// proportional to the steal timeout, clamped to keep drains snappy even
// under benchmark-scale timeouts.
func (w *Worker) drainAckWait() time.Duration {
	d := 2 * w.cfg.StealTimeout
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// requestDrainVictim asks the clearinghouse to choose the migration target
// (it sees every participant's deque depth, so it picks the least loaded).
// Returns false — and the caller falls back to a random local choice —
// when the clearinghouse is unreachable, answers with no victim, or does
// not answer inside drainAckWait. This bounded wait is what keeps a drain
// racing a clearinghouse crash safe: the handoff still completes, just
// without the load-aware placement.
func (w *Worker) requestDrainVictim() (types.WorkerID, bool) {
	if w.chDown {
		return types.NoWorker, false
	}
	w.drainAcked = false
	w.drainVictim = types.NoWorker
	if w.sendTo(types.ClearinghouseID, wire.DrainRequest{Worker: w.id}) != nil {
		return types.NoWorker, false
	}
	deadline := time.Now().Add(w.drainAckWait())
	for time.Now().Before(deadline) && !w.drainAcked && !w.attnHas(attnCrash) && !w.shutdownMsg {
		w.drainOne(time.Until(deadline))
	}
	if !w.drainAcked || w.drainVictim == types.NoWorker {
		return types.NoWorker, false
	}
	return w.drainVictim, true
}

// lingerForward flushes parked results to the adopter and keeps relaying
// late arrivals for a grace period, so results sent to this worker before
// its departure propagated are not lost.
func (w *Worker) lingerForward(adopter types.WorkerID) {
	w.migrating = false
	w.forwardTo = adopter
	pending := w.unsent
	w.unsent = nil
	for _, a := range pending {
		w.sendTo(adopter, wire.Arg{Cont: a.Cont, Val: a.Val, Crossed: true, TC: a.TC})
	}
	deadline := time.Now().Add(2*w.cfg.StealTimeout + 4*retryUnsentEvery)
	for time.Now().Before(deadline) {
		if w.attnHas(attnCrash) {
			return
		}
		w.drainOne(time.Until(deadline))
	}
}

func (w *Worker) pickUntried(tried map[types.WorkerID]bool) (types.WorkerID, bool) {
	cands := make([]types.WorkerID, 0, len(w.victims))
	for _, v := range w.victims {
		if !tried[v] && !w.dead[v] {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[w.rng.Intn(len(cands))], true
}

func (w *Worker) unregister(reason wire.LeaveReason, migratedTo types.WorkerID) {
	// Flush the final telemetry state first, so the job-end rollup is
	// complete even when the whole job fits inside one heartbeat
	// interval. Sent unreliably like the cadence reports (and kept out
	// of MessagesSent); over UDP it coalesces into the Unregister's
	// datagram. A traced worker may hold more spans than one datagram-
	// sized batch, so keep flushing until the recorder's backlog drains
	// (each report seals and ships the next batch). The leave span goes
	// in once the backlog is empty: a full recorder would drop it.
	w.foldCounters()
	for left := false; ; {
		r := w.spans.Load()
		if !left && (r == nil || r.backlog() == 0) {
			w.RecordSpan(wire.Span{Kind: wire.SpanLeave, Worker: w.id, Peer: migratedTo,
				Link: types.TaskID{Seq: uint64(reason)}})
			left = true
		}
		for _, sr := range w.statReports() {
			rep := &wire.Envelope{Job: w.job, From: w.id, To: types.ClearinghouseID,
				Payload: sr}
			_ = w.conn.Send(rep)
		}
		if left && (r == nil || r.backlog() == 0) {
			break
		}
	}
	w.sendTo(types.ClearinghouseID, wire.Unregister{
		Worker: w.id, Reason: reason, MigratedTo: migratedTo,
	})
}

// sendTo wraps payload in an envelope and transmits it, counting the
// message.
func (w *Worker) sendTo(to types.WorkerID, payload any) error {
	env := &wire.Envelope{Job: w.job, From: w.id, To: to, Payload: payload}
	if err := w.conn.Send(env); err != nil {
		// An envelope too large for the transport says nothing about the
		// peer: only an unreachable clearinghouse starts the re-register
		// loop.
		if to == types.ClearinghouseID && w.registered && !errors.Is(err, phishnet.ErrTooLarge) {
			w.noteCHDown()
		}
		return err
	}
	w.counters.MessagesSent.Add(1)
	if to != types.ClearinghouseID {
		w.msgSentTo[to]++
	}
	return nil
}

func (w *Worker) print(s string) {
	w.sendTo(types.ClearinghouseID, wire.IO{Worker: w.id, Text: s})
}

// DebugDump renders the worker's scheduler state for post-mortem
// inspection in tests. It reads the internal maps without synchronization,
// so it must only be called after the worker has stopped.
func (w *Worker) DebugDump() string {
	var b []byte
	add := func(s string) { b = append(b, s...) }
	add(fmt.Sprintf("worker %d reason=%v consecFails=%d stealPending=%v migrating=%v forwardTo=%d grants=%d repOK=%d repFail=%d adopts=%d\n",
		w.id, w.leaveReason, w.consecFails, w.stealPending, w.migrating, w.forwardTo,
		w.dbgGrants.Load(), w.dbgRepliesOK.Load(), w.dbgRepliesFail.Load(), w.dbgAdopts.Load()))
	add(fmt.Sprintf("  deque(%d):", w.dq.Len()))
	for _, cl := range w.dq.Snapshot() {
		add(fmt.Sprintf(" %v:%s", cl.ID, cl.Fn))
	}
	add("\n")
	for _, cl := range w.join.all() {
		add(fmt.Sprintf("  waiting %v fn=%s missing=%d cont=%v\n", cl.ID, cl.Fn, cl.Missing, cl.Cont))
	}
	for id, rec := range w.records {
		add(fmt.Sprintf("  record %v thief=%d confirmed=%v realCont=%v\n", id, rec.thief, rec.confirmed, rec.realCont))
	}
	for _, a := range w.unsent {
		add(fmt.Sprintf("  unsent cont=%v\n", a.Cont))
	}
	return string(b)
}

func copyCounts(m map[types.WorkerID]int64) map[types.WorkerID]int64 {
	out := make(map[types.WorkerID]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// snapshotReply dumps the worker's full scheduler state without disturbing
// it — the checkpoint counterpart of a migration payload.
func (w *Worker) snapshotReply(seq uint64) wire.SnapshotReply {
	rep := wire.SnapshotReply{Seq: seq, Worker: w.id}
	for _, cl := range w.dq.Snapshot() {
		rep.Closures = append(rep.Closures, cl.toWire())
	}
	for _, cl := range w.join.all() {
		rep.Closures = append(rep.Closures, cl.toWire())
	}
	for _, rec := range w.records {
		rep.Records = append(rep.Records, rec.toWire())
	}
	return rep
}
