package phishnet

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"phish/internal/stats"
	"phish/internal/telemetry"
	"phish/internal/trace"
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

	// udpFlushDelay is how long a small outgoing frame may wait for
	// company before its batch is flushed as one datagram. It is far below
	// the retransmit interval and the scheduler's polling periods, so
	// batching is invisible to the protocol above.
	udpFlushDelay = 200 * time.Microsecond
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
// its frame to a per-peer batch that is flushed as a single datagram when
// it fills or after udpFlushDelay, and acks are piggybacked into the same
// batches (encoded in place with wire.AppendEncode — no per-ack frame
// allocation). Consequently Send reports ErrUnknownPeer/ErrClosed
// synchronously but socket write errors surface only as lost datagrams,
// which the retransmit layer already absorbs.
type UDP struct {
	local types.WorkerID
	job   types.JobID
	conn  *net.UDPConn
	mbox  *mailbox

	mu       sync.Mutex
	peers    map[types.WorkerID]*net.UDPAddr
	pending  map[uint64]*pendingSend
	batches  map[types.WorkerID]*outBatch
	rtt      map[types.WorkerID]*peerRTT
	seen     map[string]*dedupWindow
	ackEnv   wire.Envelope // scratch envelope for piggybacked acks
	seq      uint64
	flushGen uint64 // monotonic flush-timer generation (see outBatch.gen)
	closed   bool

	// Retransmit schedule (SetRetransmit overrides; tests compress it).
	retxBase  time.Duration
	retxCap   time.Duration
	retxTries int
	rng       *rand.Rand // jitter; guarded by mu

	// Peer-death reporting: once a frame exhausts its retries the peer is
	// declared gone, exactly once, until it is heard from again.
	peerDown     func(types.WorkerID)
	downReported map[types.WorkerID]bool

	faults *Faults // optional datagram-level fault injection

	// Optional telemetry (Instrument): fault-path counters, the
	// retransmit-backoff histogram, and transport trace events. All nil by
	// default — the retransmit loop then records nothing.
	stats   *stats.Counters
	metrics *telemetry.Metrics
	trace   *trace.Buffer

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

// outBatch accumulates frames bound for one peer until flushed. gen
// identifies the arming that scheduled the pending flush: a flush
// callback only acts if its generation is still current, so a callback
// that was already in flight when the batch was rebuilt (or re-armed)
// can never flush the wrong bytes or steal a newer arming's flush.
type outBatch struct {
	dst   *net.UDPAddr
	buf   []byte
	gen   uint64
	armed bool
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

// dedupWindow remembers recently seen sequence numbers from one remote
// address.
type dedupWindow struct {
	seen map[uint64]struct{}
	ring []uint64
	pos  int
}

func newDedupWindow() *dedupWindow {
	return &dedupWindow{
		seen: make(map[uint64]struct{}, udpDedupWindow),
		ring: make([]uint64, udpDedupWindow),
	}
}

// add records seq; it reports true if seq was new.
func (d *dedupWindow) add(seq uint64) bool {
	if _, dup := d.seen[seq]; dup {
		return false
	}
	old := d.ring[d.pos]
	if _, ok := d.seen[old]; ok && len(d.seen) >= udpDedupWindow {
		delete(d.seen, old)
	}
	d.ring[d.pos] = seq
	d.pos = (d.pos + 1) % len(d.ring)
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
		peers:        make(map[types.WorkerID]*net.UDPAddr),
		pending:      make(map[uint64]*pendingSend),
		batches:      make(map[types.WorkerID]*outBatch),
		rtt:          make(map[types.WorkerID]*peerRTT),
		seen:         make(map[string]*dedupWindow),
		retxBase:     udpRetxBase,
		retxCap:      udpRetxCap,
		retxTries:    udpRetxTries,
		rng:          rand.New(rand.NewSource(int64(job)<<20 ^ int64(local))),
		downReported: make(map[types.WorkerID]bool),
		stopRetx:     make(chan struct{}),
	}
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

// SetPeerDown overrides what happens when retransmits to a peer are
// exhausted. By default the transport posts a wire.PeerGone envelope to
// its own mailbox, so the owner learns about the death in its normal
// receive loop; a non-nil fn replaces that with a direct callback. Either
// way the notification fires exactly once per peer until the peer is
// heard from (or re-registered via SetPeer) again.
func (u *UDP) SetPeerDown(fn func(types.WorkerID)) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.peerDown = fn
}

// Instrument attaches telemetry to the transport: retransmits and
// peer-gone declarations are counted in c, each retransmit's preceding
// backoff interval lands in m's histogram, and tb (when enabled) records
// EvRetransmit/EvPeerGone events. Any argument may be nil. Call before
// traffic starts.
func (u *UDP) Instrument(c *stats.Counters, m *telemetry.Metrics, tb *trace.Buffer) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.stats = c
	u.metrics = m
	u.trace = tb
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
	u.mu.Lock()
	defer u.mu.Unlock()
	u.peers[id] = ua
	delete(u.downReported, id) // a re-announced peer may be declared gone anew
	if b := u.batches[id]; b != nil {
		b.dst = ua
	}
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
		b.buf = nil
		delete(u.batches, id)
	}
	delete(u.rtt, id) // a re-announced peer may be a new incarnation elsewhere
}

// LocalAddr implements Conn.
func (u *UDP) LocalAddr() string { return u.conn.LocalAddr().String() }

// Send implements Conn: assign a sequence number, append the frame to the
// destination's batch, and keep the frame for retransmission until
// acknowledged.
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
	// a stale one buys nothing.
	untracked := false
	switch env.Payload.(type) {
	case wire.Ack, wire.StatReport:
		untracked = true
	}
	if untracked {
		data, dst := u.enqueueLocked(env.To, frame.Bytes())
		frame.Free()
		u.mu.Unlock()
		u.writeOwned(data, dst, env.To)
		return nil
	}
	now := time.Now()
	wait := u.rtoLocked(env.To)
	u.pending[env.Seq] = &pendingSend{
		to:     env.To,
		frame:  frame,
		wait:   wait,
		next:   now.Add(u.jitteredLocked(wait)),
		sentAt: now,
	}
	data, dst := u.enqueueLocked(env.To, frame.Bytes())
	u.mu.Unlock()
	u.writeOwned(data, dst, env.To)
	return nil
}

// enqueueLocked appends frame bytes to the destination's batch and arms
// its flush timer. When the batch would overflow, the full buffer is
// swapped out and returned for the caller to write after releasing u.mu.
func (u *UDP) enqueueLocked(to types.WorkerID, frame []byte) (data []byte, dst *net.UDPAddr) {
	b := u.batches[to]
	if b == nil {
		b = &outBatch{dst: u.peers[to], buf: getBuf()}
		u.batches[to] = b
	}
	if len(b.buf) > 0 && len(b.buf)+len(frame) > udpMaxDatagram {
		data, dst = b.buf, b.dst
		b.buf = getBuf()
	}
	b.buf = append(b.buf, frame...)
	u.armLocked(to, b)
	return data, dst
}

// queueAckLocked piggybacks an acknowledgment of seq onto the batch bound
// for peer to, encoding it in place — no intermediate frame, no per-ack
// allocation beyond boxing the payload.
func (u *UDP) queueAckLocked(to types.WorkerID, seq uint64) (data []byte, dst *net.UDPAddr) {
	b := u.batches[to]
	if b == nil {
		b = &outBatch{dst: u.peers[to], buf: getBuf()}
		u.batches[to] = b
	}
	if len(b.buf) > udpMaxDatagram-64 {
		data, dst = b.buf, b.dst
		b.buf = getBuf()
	}
	u.ackEnv.Job = u.job
	u.ackEnv.From = u.local
	u.ackEnv.To = to
	u.ackEnv.Payload = wire.Ack{Seq: seq}
	if grown, err := wire.AppendEncode(b.buf, &u.ackEnv); err == nil {
		b.buf = grown
	}
	u.armLocked(to, b)
	return data, dst
}

// armLocked schedules a flush for the batch unless one is already armed.
// Each arming gets a fresh timer stamped with a new generation instead of
// Reset-ing a shared timer: Reset races with a concurrently firing
// AfterFunc — the stale callback could flush a batch already being
// rebuilt, or consume the fire that the Reset was counting on, losing a
// flush. A generation-checked callback acts at most once, and only for
// the arming that created it.
func (u *UDP) armLocked(to types.WorkerID, b *outBatch) {
	if b.armed {
		return
	}
	b.armed = true
	u.flushGen++
	gen := u.flushGen
	b.gen = gen
	time.AfterFunc(udpFlushDelay, func() { u.flushPeer(to, gen) })
}

// flushPeer writes out the accumulated batch for one peer (flush-timer
// callback). A callback whose generation no longer matches the batch's
// current arming is stale and must not touch the batch.
func (u *UDP) flushPeer(to types.WorkerID, gen uint64) {
	u.mu.Lock()
	b := u.batches[to]
	if b == nil || u.closed || !b.armed || b.gen != gen {
		u.mu.Unlock()
		return
	}
	b.armed = false
	if len(b.buf) == 0 {
		u.mu.Unlock()
		return
	}
	data, dst := b.buf, b.dst
	b.buf = getBuf()
	u.mu.Unlock()
	u.writeOwned(data, dst, to)
}

// writeOwned writes one datagram buffer the caller owns and recycles it.
// When a fault plan is installed, the datagram is judged here — below the
// reliability layer, so a dropped datagram is retransmitted and a
// duplicated one is absorbed by the receiver's dedup window.
func (u *UDP) writeOwned(data []byte, dst *net.UDPAddr, to types.WorkerID) {
	if data == nil {
		return
	}
	if dst == nil {
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
				_, _ = u.conn.WriteToUDP(data, dst)
				if dup {
					_, _ = u.conn.WriteToUDP(data, dst)
				}
				putBuf(data)
			})
			return
		}
		if v.Duplicate {
			_, _ = u.conn.WriteToUDP(data, dst)
		}
	}
	_, _ = u.conn.WriteToUDP(data, dst)
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
	// Final flush: drain every batch while the socket is still open.
	type flushOp struct {
		data []byte
		dst  *net.UDPAddr
	}
	var flushes []flushOp
	for _, b := range u.batches {
		if len(b.buf) > 0 {
			flushes = append(flushes, flushOp{b.buf, b.dst})
			b.buf = nil
		}
	}
	for seq, p := range u.pending {
		p.frame.Free()
		delete(u.pending, seq)
	}
	u.mu.Unlock()
	for _, f := range flushes {
		if f.dst != nil {
			_, _ = u.conn.WriteToUDP(f.data, f.dst)
		}
		putBuf(f.data)
	}
	close(u.stopRetx)
	err := u.conn.Close()
	u.wg.Wait()
	u.mbox.close()
	return err
}

func (u *UDP) readLoop() {
	defer u.wg.Done()
	for {
		// Each datagram lands in a pooled arena so hot-path frames can be
		// handed to consumers as zero-copy views that alias the receive
		// buffer. Every view decoded from the datagram retains the arena;
		// our release below only drops the read loop's own reference, and
		// the buffer recycles once the last view is freed or materialized.
		a := wire.NewArena()
		n, from, err := u.conn.ReadFromUDP(a.Bytes())
		if err != nil {
			a.Release()
			return // closed
		}
		// A datagram carries one or more length-prefixed frames back to
		// back (the sender batches). All frames share the one arena.
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
}

func (u *UDP) handleInbound(env *wire.Envelope, from *net.UDPAddr) {
	// The read loop decodes with DecodeView, so an Ack is always a view.
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
	key := from.String()
	w := u.seen[key]
	if w == nil {
		w = newDedupWindow()
		u.seen[key] = w
	}
	fresh := w.add(env.Seq)
	data, dst := u.queueAckLocked(env.From, env.Seq)
	u.mu.Unlock()
	u.writeOwned(data, dst, env.From)
	if fresh {
		u.mbox.put(env) // consumer-owned from here; never freed by us
	} else {
		env.Free() // dedup-suppressed duplicate: this was its final stop
	}
}

func (u *UDP) retransmitLoop() {
	defer u.wg.Done()
	for {
		// Poll at a fraction of the base interval so even compressed test
		// schedules get decent resolution without a per-frame timer.
		u.mu.Lock()
		tick := u.retxBase / 4
		u.mu.Unlock()
		if tick < time.Millisecond {
			tick = time.Millisecond
		} else if tick > 25*time.Millisecond {
			tick = 25 * time.Millisecond
		}
		select {
		case <-u.stopRetx:
			return
		case <-time.After(tick):
		}
		now := time.Now()
		type flushOp struct {
			data []byte
			dst  *net.UDPAddr
			to   types.WorkerID
		}
		var flushes []flushOp
		var gone []types.WorkerID
		var retxPeers []types.WorkerID
		u.mu.Lock()
		if u.closed {
			u.mu.Unlock()
			return
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
				if data, dst := u.enqueueLocked(p.to, p.frame.Bytes()); data != nil {
					flushes = append(flushes, flushOp{data, dst, p.to})
				}
			}
		}
		report := u.peerDown
		st, tb := u.stats, u.trace
		u.mu.Unlock()
		if n := len(retxPeers); n > 0 {
			if st != nil {
				st.Retransmits.Add(int64(n))
			}
			if tb.Enabled() {
				for _, id := range retxPeers {
					tb.Add(trace.Event{Worker: u.local, Kind: trace.EvRetransmit, Peer: id})
				}
			}
		}
		if len(gone) > 0 && tb.Enabled() {
			for _, id := range gone {
				tb.Add(trace.Event{Worker: u.local, Kind: trace.EvPeerGone, Peer: id,
					Note: "retransmits exhausted"})
			}
		}
		for _, f := range flushes {
			u.writeOwned(f.data, f.dst, f.to)
		}
		for _, id := range gone {
			if report != nil {
				report(id)
				continue
			}
			// Default: surface the death in the owner's receive loop.
			u.mbox.put(&wire.Envelope{
				Job: u.job, From: u.local, To: u.local,
				Payload: wire.PeerGone{Worker: id},
			})
		}
	}
}

var _ Conn = (*UDP)(nil)
