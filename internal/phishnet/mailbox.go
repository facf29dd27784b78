package phishnet

import (
	"sync"

	"phish/internal/wire"
)

// mailboxFast is the capacity of the receive channel itself, sized for a
// worker's inbox holding a handful of steal requests, replies and args
// between drains. More than a deaf receiver (a long task body, a 20 000-way
// join) overflows it: over UDP one datagram from a thief to its victim — the
// stolen leaves' Args with its confirm and its next request — is 12.8 KB at
// p50 and 42.5 KB at p90 on flat-steal-udp, about 115 of them a job, each
// hundreds of frames, so the thief's traffic overflows the inbox routinely.
// What overflows waits for the spill goroutine, and that goroutine gets no
// processor while both workers run (ROADMAP item 4 has the steal legs). A
// 4 096-slot channel did not move makespan beyond noise, so the size stays.
const mailboxFast = 128

// mailbox is an unbounded FIFO of envelopes whose receive side is a plain
// channel. Unbounded buffering matters: a worker deep in a long task does
// not drain its inbox, and a bounded channel would make senders block,
// coupling the progress of independent workers (the paper avoids exactly
// this with split-phase sends).
//
// Delivery is one hop: put sends straight into the buffered receive
// channel under one lock, so a parked receiver is readied by the sender
// itself and a non-blocking poll sees the envelope without any other
// goroutine having to run. When the channel is full, envelopes queue on an
// overflow list and a spill goroutine — started on demand, gone once the
// list is empty — feeds them to the channel in order; until it exits every
// put appends behind it, which keeps the total order puts were made in.
type mailbox struct {
	out  chan *wire.Envelope
	done chan struct{}

	mu       sync.Mutex
	overflow []*wire.Envelope
	spilling bool // a spill goroutine is running (it alone may then send or close out)
	closed   bool
	depthMax int // high-water mark of queued envelopes
}

func newMailbox() *mailbox {
	return &mailbox{
		out:  make(chan *wire.Envelope, mailboxFast),
		done: make(chan struct{}),
	}
}

// put enqueues env without blocking. It reports false once the mailbox has
// closed.
func (m *mailbox) put(env *wire.Envelope) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if !m.spilling {
		select {
		case m.out <- env:
			m.noteDepth(len(m.out))
			return true
		default:
		}
		m.spilling = true
		go m.spill()
	}
	m.overflow = append(m.overflow, env)
	// One more envelope may be in the spill goroutine's hands; the mark is
	// a gauge for sizing a future cap, not an exact count.
	m.noteDepth(len(m.out) + len(m.overflow))
	return true
}

func (m *mailbox) noteDepth(n int) {
	if n > m.depthMax {
		m.depthMax = n
	}
}

// spill moves the overflow list into the receive channel, blocking on the
// receiver, and exits when the list is empty or the mailbox closes.
func (m *mailbox) spill() {
	for {
		m.mu.Lock()
		if m.closed || len(m.overflow) == 0 {
			m.spilling = false
			if m.closed {
				close(m.out)
			}
			m.mu.Unlock()
			return
		}
		env := m.overflow[0]
		m.overflow[0] = nil
		m.overflow = m.overflow[1:]
		if len(m.overflow) == 0 {
			m.overflow = nil // release the drained backing array
		}
		m.mu.Unlock()
		select {
		case m.out <- env:
		case <-m.done:
		}
	}
}

// close stops the mailbox (idempotent). Envelopes already in the receive
// channel stay readable; the overflow backlog is abandoned. Receivers see
// the channel close after that.
func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.overflow = nil
	close(m.done)
	if !m.spilling {
		// Every send happens under mu (put) or from the spill goroutine,
		// and there is none: nothing can be mid-send.
		close(m.out)
	}
}

// depthHighWater reports the most envelopes the mailbox has held at once.
func (m *mailbox) depthHighWater() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.depthMax
}
