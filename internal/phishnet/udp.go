package phishnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"phish/internal/stats"
	"phish/internal/telemetry"
	"phish/internal/types"
	"phish/internal/wire"
)

// UDP transport parameters. The retransmit schedule starts deliberately
// long relative to a LAN round trip: the runtime is split-phase and keeps
// working while messages are in flight, so aggressive retransmission buys
// nothing (the paper's protocols poll at 2 s and coarser). Intervals then
// back off exponentially with jitter — a congested or flapping link sees
// geometrically less retry traffic, and jitter keeps a herd of workers
// that lost the same peer from retransmitting in lockstep.
const (
	udpRetxBase    = 50 * time.Millisecond
	udpRetxCap     = 1 * time.Second
	udpRetxTries   = 10 // ~6.5 s of backed-off retries, then the peer is gone
	udpDedupWindow = 8192

	// udpFlushBackstop is when a frame that is not urgent leaves its batch
	// if nobody flushes it: the endpoint has no owner calling Flush
	// (clearinghouse, cmd/ tools), the owner is inside a task body, or the
	// sender is not the owner (the heartbeat goroutine). It is a timer, and a
	// timer on an otherwise idle Go process fires no sooner than 1.03 ms
	// after it was armed — the runtime sleeps in the netpoller in whole
	// milliseconds, and the 200 µs this constant used to say measured
	// 1.03–1.1 ms — so it is sized at what it delivers there. Next to a busy
	// worker it fires much later: the timer sits on the P of the worker that
	// armed it, which is locked to its thread and runs tasks without entering
	// the scheduler. On flat-steal-udp's worker endpoints it fired 76 times a
	// job, late by 6.4 ms at p50, 7.3 ms at p90 and 13.4 ms at most — about a
	// quarter of the 50 ms first retransmit, so an ack that rides it still
	// arrives before its sender retransmits, with less room than 1 ms
	// suggests (DESIGN.md §5k rule 2).
	udpFlushBackstop = time.Millisecond
	// udpTakeBurst bounds the datagrams one take reads, so an owner polling
	// between two tasks gets back to its tasks whatever its peers send.
	udpTakeBurst = 32
	// udpMaxDatagram caps one batched datagram, comfortably under the
	// 64 KiB read buffer and typical socket limits.
	udpMaxDatagram = 60 << 10
	// udpMaxPayload is the largest payload one UDP datagram can carry over
	// IPv4 (65535 less the IP and UDP headers); it also fits the 64 KiB
	// receive arena. A single frame may exceed udpMaxDatagram — it then
	// travels alone — but not this.
	udpMaxPayload = 65507
)

// UDP is a Conn over real UDP datagrams with per-peer acknowledgment,
// retransmission, and duplicate suppression — the reliability layer the
// paper builds above raw UDP/IP.
//
// Outgoing frames to the same destination are coalesced: each Send appends
// its frame to a per-peer batch, and acks are piggybacked into the same
// batches (encoded in place with wire.AppendEncode — no per-ack frame
// allocation). A batch leaves as one datagram
//
//   - at once, when the frame just appended is urgent: a StealRequest or a
//     StealReply, the two messages somebody is idle waiting for;
//   - when its owner calls Flush, which a worker does on its idle edge —
//     it is about to wait for traffic, so nothing more is coming to
//     coalesce with; a thief's StealConfirm, its result Arg and its next
//     StealRequest therefore share a datagram, as do the victim's three
//     acks and its StealReply;
//   - when it fills;
//   - when the udpFlushBackstop timer runs, which next to a busy worker can
//     be over 10 ms late.
//
// Consequently Send reports ErrUnknownPeer/ErrClosed synchronously but
// socket write errors surface only as lost datagrams, which the retransmit
// layer already absorbs.
//
// Reading has one frame-walk, ingest, and two kinds of caller. An endpoint
// nobody polls (clearinghouse, cmd/ tools) is read by readLoop, a goroutine
// that blocks on the socket. An endpoint whose owner
// calls Poll is read by the owner, on the owner's thread, whenever the
// owner looks — with as many workers as processors no other goroutine
// would get a processor to read for it. The first Poll ends readLoop for
// good; the retransmit tick then reads what a deaf owner has left, so a
// worker inside a long task still acknowledges before its peers
// retransmit.
type UDP struct {
	local types.WorkerID
	job   types.JobID
	conn  *net.UDPConn
	rc    syscall.RawConn // conn's descriptor, for reads that must not block
	mbox  *mailbox

	// owned says an owner polls the socket (set by its first Poll). rmu is
	// held by whoever is reading the socket — readLoop for as long as it
	// runs, then Poll or the retransmit tick for one take — so frames reach
	// the mailbox in the order their datagrams arrived.
	owned atomic.Bool
	rmu   sync.Mutex
	// One take's state, under rmu: datagrams read so far, and whether an
	// empty socket is to be waited on.
	taken     int
	takeWaits bool
	takeFn    func(fd uintptr) bool

	mu      sync.Mutex
	peers   map[types.WorkerID]netip.AddrPort
	pending map[uint64]*pendingSend
	batches map[types.WorkerID]*outBatch
	dirty   []*outBatch // batches holding frames: what Flush has to look at
	rtt     map[types.WorkerID]*peerRTT
	// seen holds one dedup window per address heard from; heard says which
	// address that was for a peer, so the window can go when the peer does.
	seen   map[netip.AddrPort]*dedupWindow
	heard  map[types.WorkerID]netip.AddrPort
	ackEnv wire.Envelope // scratch envelope for piggybacked acks
	seq    uint64
	closed bool
	// flushTimer is the backstop: armed by the first frame to enter an
	// empty batch, it flushes every batch once and disarms.
	flushTimer *time.Timer
	flushArmed bool

	// Retransmit schedule (SetRetransmit overrides; tests compress it).
	retxBase  time.Duration
	retxCap   time.Duration
	retxTries int
	rng       *rand.Rand // jitter; guarded by mu

	// Peer-death reporting: once a frame exhausts its retries the peer is
	// declared gone, exactly once, until it is heard from again.
	downReported map[types.WorkerID]bool

	faults *Faults // optional datagram-level fault injection

	// Optional telemetry (Instrument): fault-path counters, the
	// retransmit-backoff histogram, and the owner's span sink. All nil by
	// default — the retransmit loop then records nothing.
	stats   *stats.Counters
	metrics *telemetry.Metrics
	spans   func(wire.Span)

	stopRetx chan struct{}
	wg       sync.WaitGroup
}

// pendingSend retains an unacknowledged frame for retransmission. The
// frame buffer is pooled; it is freed exactly when the entry leaves the
// pending map (ack, peer drop, give-up, or close).
type pendingSend struct {
	to     types.WorkerID
	frame  *wire.Frame
	tries  int
	wait   time.Duration // current backoff interval (pre-jitter)
	next   time.Time
	sentAt time.Time // first transmission; anchors the peer's RTT sample
}

// peerRTT is one peer's round-trip track (Jacobson-style smoothed RTT and
// mean deviation), measured from first transmission to ack receipt.
// Guarded by u.mu.
type peerRTT struct {
	ew  float64 // smoothed RTT, ns
	dev float64 // smoothed |sample - ew|, ns
	n   int64
}

// rttMinSamples is how many acks a peer needs before its RTT track may
// stretch the retransmit schedule.
const rttMinSamples = 4

func (r *peerRTT) observe(d time.Duration) {
	x := float64(d)
	if r.n == 0 {
		r.ew = x
		r.dev = x / 2
	} else {
		// Classic TCP gains: alpha 1/8 for the mean, beta 1/4 for the
		// deviation.
		diff := x - r.ew
		if diff < 0 {
			diff = -diff
		}
		r.dev += 0.25 * (diff - r.dev)
		r.ew += 0.125 * (x - r.ew)
	}
	r.n++
}

// outBatch accumulates frames bound for one peer until flushed. listed
// says the batch is on the endpoint's dirty list.
type outBatch struct {
	to     types.WorkerID
	dst    netip.AddrPort
	buf    []byte
	listed bool
}

// bufPool recycles batch datagram buffers.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

func getBuf() []byte { return (*bufPool.Get().(*[]byte))[:0] }

func putBuf(b []byte) {
	b = b[:0]
	bufPool.Put(&b)
}

// dedupWindow remembers the last udpDedupWindow sequence numbers seen from
// one remote address. Both halves grow with the traffic: a peer heard from
// a few times costs a few entries, not a full window.
type dedupWindow struct {
	seen map[uint64]struct{}
	ring []uint64 // arrival order; a circle once it is udpDedupWindow long
	pos  int
}

// add records seq; it reports true if seq was new.
func (d *dedupWindow) add(seq uint64) bool {
	if _, dup := d.seen[seq]; dup {
		return false
	}
	if d.seen == nil {
		d.seen = make(map[uint64]struct{})
	}
	if len(d.ring) < udpDedupWindow {
		d.ring = append(d.ring, seq)
	} else {
		delete(d.seen, d.ring[d.pos])
		d.ring[d.pos] = seq
		d.pos = (d.pos + 1) % udpDedupWindow
	}
	d.seen[seq] = struct{}{}
	return true
}

// ListenUDP opens a UDP endpoint for worker local of job job on addr
// (":0" picks a free port).
func ListenUDP(job types.JobID, local types.WorkerID, addr string) (*UDP, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("phishnet: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("phishnet: listen %q: %w", addr, err)
	}
	u := &UDP{
		local:        local,
		job:          job,
		conn:         conn,
		mbox:         newMailbox(),
		peers:        make(map[types.WorkerID]netip.AddrPort),
		pending:      make(map[uint64]*pendingSend),
		batches:      make(map[types.WorkerID]*outBatch),
		rtt:          make(map[types.WorkerID]*peerRTT),
		seen:         make(map[netip.AddrPort]*dedupWindow),
		heard:        make(map[types.WorkerID]netip.AddrPort),
		retxBase:     udpRetxBase,
		retxCap:      udpRetxCap,
		retxTries:    udpRetxTries,
		rng:          rand.New(rand.NewSource(int64(job)<<20 ^ int64(local))),
		downReported: make(map[types.WorkerID]bool),
		stopRetx:     make(chan struct{}),
	}
	if u.rc, err = conn.SyscallConn(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("phishnet: listen %q: %w", addr, err)
	}
	u.takeFn = u.takeSome
	// A random first sequence number: an endpoint reopened on its
	// predecessor's address (a clearinghouse resumed on a pinned address)
	// would otherwise reuse numbers its peers' dedup windows still hold,
	// and its first frames would be dropped as duplicates.
	u.seq = rand.Uint64()
	u.flushTimer = time.AfterFunc(time.Hour, u.flushBackstop)
	u.flushTimer.Stop()
	u.wg.Add(2)
	go u.readLoop()
	go u.retransmitLoop()
	return u, nil
}

// SetRetransmit overrides the retransmit schedule: the first retry fires
// ~base after the send, each subsequent retry doubles the interval up to
// cap (each jittered ±25%), and after tries unacknowledged attempts the
// frame is abandoned and the peer declared gone. Call before traffic
// starts.
func (u *UDP) SetRetransmit(base, cap time.Duration, tries int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if base > 0 {
		u.retxBase = base
	}
	if cap > 0 {
		u.retxCap = cap
	}
	if tries > 0 {
		u.retxTries = tries
	}
}

// Instrument attaches telemetry to the transport: retransmits and
// peer-gone declarations are counted in c, each retransmit's preceding
// backoff interval lands in m's histogram, and spans — the owner's span
// sink, such as core.Worker.RecordSpan — gets one wire.SpanRetransmit per
// re-sent frame, called without the transport's lock held. Any argument
// may be nil. Call before traffic starts.
func (u *UDP) Instrument(c *stats.Counters, m *telemetry.Metrics, spans func(wire.Span)) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.stats = c
	u.metrics = m
	u.spans = spans
}

// SetFaults interposes deterministic fault injection at the datagram
// level — below the ack/retransmit/dedup machinery, so injected drops are
// retransmitted, duplicates are suppressed by the dedup window, and a
// partition looks like a dead peer: backoff, give-up, PeerGone.
func (u *UDP) SetFaults(fl *Faults) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.faults = fl
}

// jitteredLocked returns d scaled by a uniform factor in [0.75, 1.25).
func (u *UDP) jitteredLocked(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.75 + 0.5*u.rng.Float64()))
}

// rtoLocked seeds a frame's first retransmit interval from the peer's RTT
// track: smoothed RTT plus four deviations, the TCP retransmission-timeout
// shape. The track only ever *stretches* the schedule — the configured
// base remains the floor (the deliberately-long-for-a-LAN rationale in the
// package constants still applies; a sub-millisecond in-process RTT must
// not turn the transport aggressive) and the cap remains the ceiling. A
// peer without rttMinSamples acked round trips gets the plain base.
func (u *UDP) rtoLocked(to types.WorkerID) time.Duration {
	r := u.rtt[to]
	if r == nil || r.n < rttMinSamples {
		return u.retxBase
	}
	rto := time.Duration(r.ew + 4*r.dev)
	if rto < u.retxBase {
		return u.retxBase
	}
	if rto > u.retxCap {
		return u.retxCap
	}
	return rto
}

// SetPeer implements Conn.
func (u *UDP) SetPeer(id types.WorkerID, addr string) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return // an unresolvable peer simply stays unknown
	}
	ap := unmapped(ua.AddrPort())
	u.mu.Lock()
	defer u.mu.Unlock()
	u.peers[id] = ap
	delete(u.downReported, id) // a re-announced peer may be declared gone anew
	if b := u.batches[id]; b != nil {
		b.dst = ap
	}
}

// unmapped strips the IPv4-in-IPv6 form a dual-stack socket reports, so one
// peer is one map key however its address was learned.
func unmapped(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// DropPeer implements Conn.
func (u *UDP) DropPeer(id types.WorkerID) {
	u.mu.Lock()
	defer u.mu.Unlock()
	delete(u.peers, id)
	for seq, p := range u.pending {
		if p.to == id {
			p.frame.Free()
			delete(u.pending, seq)
		}
	}
	if b := u.batches[id]; b != nil {
		putBuf(b.buf)
		b.buf = nil // a dirty-list entry for it now reads as empty
		delete(u.batches, id)
	}
	delete(u.rtt, id) // a re-announced peer may be a new incarnation elsewhere
	u.forgetWindowLocked(id)
}

// forgetWindowLocked drops the dedup window of a peer that has left or been
// given up on. Should it speak again it starts a fresh one.
func (u *UDP) forgetWindowLocked(id types.WorkerID) {
	if from, ok := u.heard[id]; ok {
		delete(u.seen, from)
		delete(u.heard, id)
	}
}

// LocalAddr implements Conn.
func (u *UDP) LocalAddr() string { return u.conn.LocalAddr().String() }

// Send implements Conn: assign a sequence number, append the frame to the
// destination's batch, and keep the frame for retransmission until
// acknowledged. An urgent frame takes its batch out with it.
func (u *UDP) Send(env *wire.Envelope) error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return ErrClosed
	}
	if _, ok := u.peers[env.To]; !ok {
		u.mu.Unlock()
		return ErrUnknownPeer
	}
	u.seq++
	env.Seq = u.seq
	env.From = u.local
	env.Job = u.job
	frame, err := wire.EncodeFrame(env)
	if err != nil {
		u.mu.Unlock()
		return err
	}
	if n := len(frame.Bytes()); n > udpMaxPayload {
		// No datagram can carry it: the socket write would fail on every
		// retransmit, and ten silent failures later a healthy peer would
		// be declared gone. Refuse now, while the caller can still act.
		frame.Free()
		u.mu.Unlock()
		return fmt.Errorf("%w: %d bytes encoded, limit %d", ErrTooLarge, n, udpMaxPayload)
	}
	// Acks are fire-and-forget by nature. Stat reports are sent the same
	// way by design: they are soft state, cumulative and refreshed every
	// heartbeat, so the next one supersedes a lost one and retransmitting
	// a stale one buys nothing. The stamped one of each tick is the
	// worker's heartbeat, though, and is tracked like any message: when
	// the clearinghouse stops answering, its retransmits run out and the
	// worker hears PeerGone. A steal request or reply is what an idle
	// worker is waiting for: it leaves now, and takes along whatever the
	// batch already held.
	tracked, urgent := true, false
	switch p := env.Payload.(type) {
	case wire.Ack:
		tracked = false
	case wire.StatReport:
		tracked = p.SendNS != 0
	case wire.StealRequest, wire.StealReply:
		urgent = true
	}
	if tracked {
		now := time.Now()
		wait := u.rtoLocked(env.To)
		u.pending[env.Seq] = &pendingSend{
			to:     env.To,
			frame:  frame,
			wait:   wait,
			next:   now.Add(u.jitteredLocked(wait)),
			sentAt: now,
		}
	}
	b, full := u.enqueueLocked(env.To, frame.Bytes())
	if !tracked {
		frame.Free()
	}
	dst := b.dst
	var batch []byte
	if urgent {
		batch = b.take()
	}
	u.mu.Unlock()
	u.writeOwned(full, dst, env.To)
	u.writeOwned(batch, dst, env.To)
	return nil
}

// datagram is a batch's contents on their way to the socket.
type datagram struct {
	data []byte
	dst  netip.AddrPort
	to   types.WorkerID
}

// take empties the batch and returns what it held for the caller to write
// once u.mu is released (nil if nothing).
func (b *outBatch) take() []byte {
	if len(b.buf) == 0 {
		return nil
	}
	data := b.buf
	b.buf = getBuf()
	return data
}

// batchLocked returns the batch bound for peer to, first making room for
// need more bytes: a batch that would overflow is swapped out and returned
// as full, for the caller to write after releasing u.mu. A batch about to
// receive its first frame goes on the dirty list and arms the backstop.
func (u *UDP) batchLocked(to types.WorkerID, need int) (b *outBatch, full []byte) {
	b = u.batches[to]
	if b == nil {
		b = &outBatch{to: to, dst: u.peers[to], buf: getBuf()}
		u.batches[to] = b
	}
	if len(b.buf)+need > udpMaxDatagram {
		full = b.take()
	}
	if len(b.buf) == 0 {
		if !b.listed {
			b.listed = true
			u.dirty = append(u.dirty, b)
		}
		if !u.flushArmed {
			u.flushArmed = true
			u.flushTimer.Reset(udpFlushBackstop)
		}
	}
	return b, full
}

// enqueueLocked appends frame bytes to the destination's batch.
func (u *UDP) enqueueLocked(to types.WorkerID, frame []byte) (b *outBatch, full []byte) {
	b, full = u.batchLocked(to, len(frame))
	b.buf = append(b.buf, frame...)
	return b, full
}

// queueAckLocked piggybacks an acknowledgment of seq onto the batch bound
// for peer to, encoding it in place — no intermediate frame, no per-ack
// allocation beyond boxing the payload.
func (u *UDP) queueAckLocked(to types.WorkerID, seq uint64) (b *outBatch, full []byte) {
	b, full = u.batchLocked(to, 64)
	u.ackEnv.Job = u.job
	u.ackEnv.From = u.local
	u.ackEnv.To = to
	u.ackEnv.Payload = wire.Ack{Seq: seq}
	if grown, err := wire.AppendEncode(b.buf, &u.ackEnv); err == nil {
		b.buf = grown
	}
	return b, full
}

// Flush writes out every batch that holds frames, one datagram each. The
// endpoint's owner calls it on its idle edge — when it is about to wait for
// traffic and so has nothing more to add — and the backstop timer calls it
// for everyone else. It is the one flush routine; an urgent Send is the same
// thing for a single batch.
func (u *UDP) Flush() {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return
	}
	u.flushAndUnlock()
}

// flushAndUnlock empties the dirty list under u.mu, releases it, and writes
// what the batches held.
func (u *UDP) flushAndUnlock() {
	var few [4]datagram // a worker talks to a victim, a join's owner, the clearinghouse
	outs := few[:0]
	for i, b := range u.dirty {
		b.listed = false
		if data := b.take(); data != nil {
			outs = append(outs, datagram{data, b.dst, b.to})
		}
		u.dirty[i] = nil
	}
	u.dirty = u.dirty[:0]
	u.mu.Unlock()
	for _, o := range outs {
		u.writeOwned(o.data, o.dst, o.to)
	}
}

// flushBackstop is the flush timer's callback: it disarms and flushes in
// one critical section, so a frame is either in this flush or re-arms the
// timer.
func (u *UDP) flushBackstop() {
	u.mu.Lock()
	u.flushArmed = false
	if u.closed {
		u.mu.Unlock()
		return
	}
	u.flushAndUnlock()
}

// writeOwned writes one datagram buffer the caller owns and recycles it.
// When a fault plan is installed, the datagram is judged here — below the
// reliability layer, so a dropped datagram is retransmitted and a
// duplicated one is absorbed by the receiver's dedup window.
func (u *UDP) writeOwned(data []byte, dst netip.AddrPort, to types.WorkerID) {
	if data == nil {
		return
	}
	if !dst.IsValid() {
		putBuf(data)
		return
	}
	u.mu.Lock()
	fl := u.faults
	u.mu.Unlock()
	if fl != nil {
		v := fl.Judge(u.local, to)
		if v.Drop {
			putBuf(data)
			return
		}
		if v.Delay > 0 {
			dup := v.Duplicate
			time.AfterFunc(v.Delay, func() {
				_, _ = u.conn.WriteToUDPAddrPort(data, dst)
				if dup {
					_, _ = u.conn.WriteToUDPAddrPort(data, dst)
				}
				putBuf(data)
			})
			return
		}
		if v.Duplicate {
			_, _ = u.conn.WriteToUDPAddrPort(data, dst)
		}
	}
	_, _ = u.conn.WriteToUDPAddrPort(data, dst)
	putBuf(data)
}

// Recv implements Conn.
func (u *UDP) Recv() <-chan *wire.Envelope { return u.mbox.out }

// InboxDepthMax implements Conn.
func (u *UDP) InboxDepthMax() int { return u.mbox.depthHighWater() }

// Close implements Conn.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	u.flushTimer.Stop()
	for seq, p := range u.pending {
		p.frame.Free()
		delete(u.pending, seq)
	}
	// Final flush: drain every batch while the socket is still open.
	u.flushAndUnlock()
	close(u.stopRetx)
	err := u.conn.Close()
	u.wg.Wait()
	u.mbox.close()
	return err
}

// readLoop is the reader of an endpoint nobody polls: it blocks on the
// socket and ingests each datagram as it lands. It ends when the endpoint
// closes or an owner starts to poll (either fails the read).
func (u *UDP) readLoop() {
	defer u.wg.Done()
	u.rmu.Lock()
	defer u.rmu.Unlock()
	for !u.owned.Load() {
		a := wire.NewArena()
		n, from, err := u.conn.ReadFromUDPAddrPort(a.Bytes())
		if err != nil {
			a.Release()
			return
		}
		u.ingest(a, n, unmapped(from))
	}
}

// Poll takes whatever the socket holds, on the caller's thread, and feeds
// it to the mailbox: the caller then finds it on Recv. With wait > 0 and an
// empty socket it first waits, for at most wait, until a datagram lands;
// nothing else ends the wait, so a caller with other things to watch waits
// in slices. It reports false when there is nothing to poll — the endpoint
// is closed, or this platform has no read that cannot block — and the
// caller should rely on Recv alone.
//
// Poll belongs to the endpoint's owner, the one goroutine that also drains
// Recv. The first call takes the socket over from readLoop for good.
func (u *UDP) Poll(wait time.Duration) bool {
	if !canRecvNow {
		return false
	}
	if !u.owned.Load() {
		u.owned.Store(true)
		_ = u.conn.SetReadDeadline(time.Now()) // ends readLoop's wait
		u.rmu.Lock()
		_ = u.conn.SetReadDeadline(time.Time{})
	} else {
		u.rmu.Lock()
	}
	defer u.rmu.Unlock()
	return u.take(wait)
}

// take reads the socket until it is empty (or udpTakeBurst datagrams on)
// and ingests each datagram; if the socket is empty to begin with and wait
// is positive it first waits up to wait for one. The reads themselves never
// block; the wait is the netpoller's, so it holds no thread and no
// processor. It reports false once the socket has closed. Callers hold rmu.
func (u *UDP) take(wait time.Duration) bool {
	if wait > 0 {
		_ = u.conn.SetReadDeadline(time.Now().Add(wait))
		// An expired deadline fails the next read before it looks.
		defer u.conn.SetReadDeadline(time.Time{})
	}
	u.taken, u.takeWaits = 0, wait > 0
	err := u.rc.Read(u.takeFn)
	return err == nil || errors.Is(err, os.ErrDeadlineExceeded)
}

// takeSome is take's body, run by the RawConn with the descriptor in hand
// (through takeFn, a method value made once: a closure per poll would be
// an allocation per spin). Returning false asks to be called again when
// the socket is readable.
func (u *UDP) takeSome(fd uintptr) bool {
	for ; u.taken < udpTakeBurst; u.taken++ {
		a := wire.NewArena()
		n, from, err := recvNow(fd, a.Bytes())
		if err != nil {
			a.Release()
			break // empty
		}
		u.ingest(a, n, from)
	}
	return u.taken > 0 || !u.takeWaits
}

// ingest is the one receive routine: it walks the frames of a datagram that
// landed in a's first n bytes and hands each to handleInbound. A datagram
// carries one or more length-prefixed frames back to back (the sender
// batches). Hot-path frames go to consumers as zero-copy views that alias
// the arena; every view retains it, ingest drops the reader's own
// reference, and the buffer recycles once the last view is freed or
// materialized.
func (u *UDP) ingest(a *wire.Arena, n int, from netip.AddrPort) {
	data := a.Bytes()[:n]
	for len(data) >= 4 {
		flen := 4 + int(binary.BigEndian.Uint32(data[:4]))
		if flen > len(data) {
			break // truncated tail; drop like a real network would
		}
		env, err := wire.DecodeView(data[:flen], a)
		data = data[flen:]
		if err != nil {
			continue // garbage frame; framing is still intact
		}
		u.handleInbound(env, from)
	}
	a.Release()
}

func (u *UDP) handleInbound(env *wire.Envelope, from netip.AddrPort) {
	// ingest decodes with DecodeView, so an Ack is always a view.
	v, _ := env.Payload.(*wire.View)
	if av, isAck := v.AsAck(); isAck {
		ackSeq := av.Seq()
		u.mu.Lock()
		if p := u.pending[ackSeq]; p != nil {
			// Karn's rule: only a never-retransmitted frame yields an RTT
			// sample — after a retransmit the ack is ambiguous about which
			// transmission it answers.
			if p.tries == 0 && !p.sentAt.IsZero() {
				r := u.rtt[p.to]
				if r == nil {
					r = &peerRTT{}
					u.rtt[p.to] = r
				}
				r.observe(time.Since(p.sentAt))
			}
			p.frame.Free()
			delete(u.pending, ackSeq)
		}
		u.mu.Unlock()
		env.Free() // consumed in-transport; the envelope never leaves here
		return
	}
	// Acknowledge, learn the sender's address, and dedup.
	u.mu.Lock()
	if _, known := u.peers[env.From]; !known {
		u.peers[env.From] = from
	}
	delete(u.downReported, env.From) // it spoke: alive again
	w := u.seen[from]
	if w == nil {
		w = &dedupWindow{}
		u.seen[from] = w
		if old, ok := u.heard[env.From]; ok {
			delete(u.seen, old) // the peer moved; its old window is nobody's
		}
		u.heard[env.From] = from
	}
	fresh := w.add(env.Seq)
	b, full := u.queueAckLocked(env.From, env.Seq)
	dst := b.dst
	u.mu.Unlock()
	u.writeOwned(full, dst, env.From)
	if fresh {
		u.mbox.put(env) // consumer-owned from here; never freed by us
	} else {
		env.Free() // dedup-suppressed duplicate: this was its final stop
	}
}

// tickLocked is the retransmit loop's period: a fraction of the base
// interval, so even compressed test schedules get decent resolution
// without a per-frame timer.
func (u *UDP) tickLocked() time.Duration {
	tick := u.retxBase / 4
	if tick < time.Millisecond {
		return time.Millisecond
	}
	if tick > 25*time.Millisecond {
		return 25 * time.Millisecond
	}
	return tick
}

// retransmitLoop runs once a tick. It resends what has gone unacknowledged
// for its interval, gives up on peers that never answer, and — for an
// endpoint whose owner polls — reads what the owner has left on the socket:
// an owner deaf inside a long task body still acknowledges within a tick
// plus the flush backstop, well inside its peers' first retransmit.
func (u *UDP) retransmitLoop() {
	defer u.wg.Done()
	u.mu.Lock()
	tick := u.tickLocked()
	u.mu.Unlock()
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-u.stopRetx:
			return
		case <-ticker.C:
		}
		if u.owned.Load() && u.rmu.TryLock() {
			u.take(0) // rmu busy means the owner is reading right now
			u.rmu.Unlock()
		}
		now := time.Now()
		var flushes []datagram
		var gone []types.WorkerID
		var retxPeers []types.WorkerID
		u.mu.Lock()
		if u.closed {
			u.mu.Unlock()
			return
		}
		if t := u.tickLocked(); t != tick {
			tick = t // SetRetransmit moved the schedule
			ticker.Reset(tick)
		}
		for _, p := range u.pending {
			if now.Before(p.next) {
				continue
			}
			p.tries++
			if p.tries > u.retxTries {
				// Out of retries: the peer is gone. Abandon every frame
				// bound for it — none will ever be delivered — and report
				// the death once.
				to := p.to
				for s2, q := range u.pending {
					if q.to == to {
						q.frame.Free()
						delete(u.pending, s2)
					}
				}
				u.forgetWindowLocked(to)
				if !u.downReported[to] {
					u.downReported[to] = true
					gone = append(gone, to)
				}
				continue
			}
			// Record the interval that just elapsed before this retransmit,
			// then double it for the next one.
			u.metrics.RetxBackoff().Observe(int64(p.wait))
			retxPeers = append(retxPeers, p.to)
			p.wait *= 2
			if p.wait > u.retxCap {
				p.wait = u.retxCap
			}
			p.next = now.Add(u.jitteredLocked(p.wait))
			if _, ok := u.peers[p.to]; ok {
				// Re-enqueue through the batcher: the bytes are copied
				// under the lock, so an ack freeing the pooled frame
				// concurrently can never corrupt an in-flight write.
				if b, full := u.enqueueLocked(p.to, p.frame.Bytes()); full != nil {
					flushes = append(flushes, datagram{full, b.dst, p.to})
				}
			}
		}
		st, sink := u.stats, u.spans
		u.mu.Unlock()
		if n := len(retxPeers); n > 0 {
			if st != nil {
				st.Retransmits.Add(int64(n))
			}
			if sink != nil {
				at := now.UnixNano()
				for _, id := range retxPeers {
					sink(wire.Span{Kind: wire.SpanRetransmit, Worker: u.local, Peer: id, Start: at, End: at})
				}
			}
		}
		for _, f := range flushes {
			u.writeOwned(f.data, f.dst, f.to)
		}
		for _, id := range gone {
			// Surface the death in the owner's receive loop.
			u.mbox.put(&wire.Envelope{
				Job: u.job, From: u.local, To: u.local,
				Payload: wire.PeerGone{Worker: id},
			})
		}
	}
}

var _ Conn = (*UDP)(nil)
