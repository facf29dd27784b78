package phishnet

import (
	"container/heap"
	"sync"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

// Fabric is an in-memory network connecting the participants of one job in
// a single process: the workers and the clearinghouse. It is the transport
// used by the simulated NOW, the tests, and the benchmarks.
//
// Delivery is reliable. With zero latency, Send hands the envelope to the
// destination's unbounded mailbox immediately; with a configured Latency,
// a delivery pump holds messages for that long, preserving per-fabric send
// order, so the simulation can mimic the high round-trip latency the
// paper's idle-initiated protocols are designed to tolerate.
type Fabric struct {
	mu         sync.RWMutex
	ports      map[types.WorkerID]*Port
	latency    time.Duration
	latencyFor func(from, to types.WorkerID) time.Duration
	faults     *Faults
	codec      Codec
	pumpQ      *deliveryQueue
	pumpGo     bool
	closed     bool
	wake       chan struct{}
}

// Codec selects how an in-memory fabric treats envelopes in flight.
type Codec int

const (
	// CodecNone passes envelope pointers through untouched (default;
	// fastest — the simulated NOW's shared-memory shortcut). Receivers get
	// the struct payloads the sender built.
	CodecNone Codec = iota
	// CodecWire does to every envelope what the UDP transport does: encode
	// it to a frame, copy the frame into a pooled arena, and decode it
	// there, so receivers get zero-copy *wire.View payloads for the steal-
	// path messages and in-process tests and benchmarks exercise the bytes and
	// the read-in-place ingest paths of a real deployment.
	CodecWire
)

// SetCodec selects in-flight envelope treatment. Call before traffic
// starts.
func (f *Fabric) SetCodec(c Codec) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.codec = c
}

// NewFabric returns an empty fabric with no injected latency.
func NewFabric() *Fabric {
	return &Fabric{
		ports: make(map[types.WorkerID]*Port),
		pumpQ: &deliveryQueue{},
		wake:  make(chan struct{}, 1),
	}
}

// SetLatency injects a fixed one-way delivery delay for all subsequent
// sends. Call before traffic starts.
func (f *Fabric) SetLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
}

// SetLatencyFunc injects a per-pair one-way delay — the heterogeneous
// network model: zero inside a machine room, milliseconds across the slow
// cut. Because the delay is a pure function of (from, to), per-pair FIFO
// order is preserved. Call before traffic starts.
func (f *Fabric) SetLatencyFunc(fn func(from, to types.WorkerID) time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latencyFor = fn
}

// SetFaults interposes deterministic fault injection on every delivery.
// The fabric is a reliable transport (no retransmit layer above it), so
// verdicts map onto failure modes its callers already survive: a dropped
// or partitioned message surfaces as an ErrUnknownPeer send error (the
// sender parks and retries, as when a port detaches), a duplicate is
// delivered twice (receivers drop already-filled argument slots), and a
// delay rides the latency pump, where unequal delays reorder messages.
func (f *Fabric) SetFaults(fl *Faults) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = fl
}

// Attach creates the endpoint for worker id. Attaching an id twice is an
// error in the caller; the fabric panics to surface it immediately.
func (f *Fabric) Attach(id types.WorkerID) *Port {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		panic("phishnet: attach on closed fabric")
	}
	if _, dup := f.ports[id]; dup {
		panic("phishnet: duplicate fabric attach")
	}
	p := &Port{id: id, fab: f, mbox: newMailbox()}
	f.ports[id] = p
	return p
}

// detach removes a port (called by Port.Close).
func (f *Fabric) detach(id types.WorkerID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.ports, id)
}

// Close tears down every port.
func (f *Fabric) Close() {
	f.mu.Lock()
	ports := make([]*Port, 0, len(f.ports))
	for _, p := range f.ports {
		ports = append(ports, p)
	}
	f.ports = make(map[types.WorkerID]*Port)
	f.closed = true
	f.mu.Unlock()
	for _, p := range ports {
		p.mbox.close()
	}
}

func (f *Fabric) deliver(env *wire.Envelope) error {
	// The common configuration — pointers passed through, no injected
	// latency, no faults — only reads the fabric, so concurrent senders
	// share the lock instead of serialising on it.
	f.mu.RLock()
	codec := f.codec
	if codec == CodecNone && f.faults == nil && f.latency == 0 && f.latencyFor == nil {
		dst, ok := f.ports[env.To]
		f.mu.RUnlock()
		if !ok {
			return ErrUnknownPeer
		}
		if !dst.mbox.put(env) {
			return ErrClosed
		}
		return nil
	}
	f.mu.RUnlock()
	env, err := transcode(codec, env)
	if err != nil {
		return err
	}
	// Fault verdicts and the latency pump's sequence numbers are ordered by
	// the exclusive lock.
	f.mu.Lock()
	var verdict Verdict
	if f.faults != nil {
		verdict = f.faults.Judge(env.From, env.To)
	}
	if verdict.Drop {
		f.mu.Unlock()
		return ErrUnknownPeer
	}
	copies := 1
	if verdict.Duplicate {
		copies = 2
	}
	lat := f.latency
	if f.latencyFor != nil {
		lat = f.latencyFor(env.From, env.To)
	}
	lat += verdict.Delay
	if lat == 0 {
		dst, ok := f.ports[env.To]
		f.mu.Unlock()
		if !ok {
			return ErrUnknownPeer
		}
		for i := 0; i < copies; i++ {
			if !dst.mbox.put(env) {
				return ErrClosed
			}
		}
		return nil
	}
	// Delayed path: enqueue on the time-ordered pump.
	for i := 0; i < copies; i++ {
		heap.Push(f.pumpQ, &delayedMsg{at: time.Now().Add(lat), env: env, seq: f.pumpQ.nextSeq()})
	}
	if !f.pumpGo {
		f.pumpGo = true
		go f.pump()
	}
	f.mu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
	return nil
}

// transcode puts env through the wire under CodecWire, as the UDP
// transport's send and read loop would.
func transcode(codec Codec, env *wire.Envelope) (*wire.Envelope, error) {
	if codec != CodecWire {
		return env, nil
	}
	frame, err := wire.EncodeFrame(env)
	if err != nil {
		return nil, err
	}
	defer frame.Free()
	n := len(frame.Bytes())
	a := wire.NewArena()
	defer a.Release() // a view holds its own reference
	if n > len(a.Bytes()) {
		// Larger than a datagram (cold-path bulk): decode owned.
		return wire.Decode(frame.Bytes())
	}
	copy(a.Bytes(), frame.Bytes())
	return wire.DecodeView(a.Bytes()[:n], a)
}

// pump delivers delayed messages in timestamp order.
func (f *Fabric) pump() {
	for {
		f.mu.Lock()
		if f.pumpQ.Len() == 0 {
			f.pumpGo = false
			f.mu.Unlock()
			return
		}
		next := f.pumpQ.items[0]
		wait := time.Until(next.at)
		if wait > 0 {
			f.mu.Unlock()
			select {
			case <-time.After(wait):
			case <-f.wake:
			}
			continue
		}
		heap.Pop(f.pumpQ)
		dst, ok := f.ports[next.env.To]
		f.mu.Unlock()
		if ok {
			dst.mbox.put(next.env) // drop on closed mailbox, like a real net
		}
	}
}

// Port is one endpoint on a Fabric. It implements Conn.
type Port struct {
	id     types.WorkerID
	fab    *Fabric
	mbox   *mailbox
	closed sync.Once
}

// Send implements Conn.
func (p *Port) Send(env *wire.Envelope) error { return p.fab.deliver(env) }

// Recv implements Conn.
func (p *Port) Recv() <-chan *wire.Envelope { return p.mbox.out }

// InboxDepthMax implements Conn.
func (p *Port) InboxDepthMax() int { return p.mbox.depthHighWater() }

// SetPeer implements Conn; the fabric routes by worker id, so addresses
// are unnecessary.
func (p *Port) SetPeer(types.WorkerID, string) {}

// DropPeer implements Conn.
func (p *Port) DropPeer(types.WorkerID) {}

// LocalAddr implements Conn.
func (p *Port) LocalAddr() string { return "" }

// Close implements Conn.
func (p *Port) Close() error {
	p.closed.Do(func() {
		p.fab.detach(p.id)
		p.mbox.close()
	})
	return nil
}

var _ Conn = (*Port)(nil)

// delayedMsg and deliveryQueue implement the latency pump's time-ordered
// heap; seq breaks timestamp ties so equal-latency messages keep send
// order.
type delayedMsg struct {
	at  time.Time
	seq uint64
	env *wire.Envelope
}

type deliveryQueue struct {
	items []*delayedMsg
	seq   uint64
}

func (q *deliveryQueue) nextSeq() uint64 { q.seq++; return q.seq }

func (q *deliveryQueue) Len() int { return len(q.items) }
func (q *deliveryQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.at.Equal(b.at) {
		return a.seq < b.seq
	}
	return a.at.Before(b.at)
}
func (q *deliveryQueue) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *deliveryQueue) Push(x any)    { q.items = append(q.items, x.(*delayedMsg)) }
func (q *deliveryQueue) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return it
}
