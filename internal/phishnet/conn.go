// Package phishnet provides the transports Phish processes talk over.
//
// Two implementations of Conn exist:
//
//   - Fabric/Port: an in-memory message fabric connecting the simulated
//     workstations of one process. It is what the simulated NOW
//     (internal/cluster), the tests, and the benchmarks use. Delivery is
//     reliable and ordered, with optional injected latency to mimic a
//     1994-era LAN.
//
//   - UDP: real datagrams with acknowledgment, retransmission, and
//     duplicate suppression, used by the cmd/ binaries to run a job across
//     real machines. The paper implements all communication on top of
//     UDP/IP with split-phase operations; Send here never blocks waiting
//     for the peer.
//
// Both carry wire.Envelope values and route by the envelope's To field.
package phishnet

import (
	"errors"

	"phish/internal/types"
	"phish/internal/wire"
)

// Conn is a worker's (or clearinghouse's) connection to its job's peers.
type Conn interface {
	// Send transmits env to env.To. It returns promptly (split-phase);
	// reliability is the transport's concern. An error means the
	// destination is not currently reachable (unknown or departed); the
	// caller may re-resolve the destination and retry.
	Send(env *wire.Envelope) error
	// Recv returns the channel of inbound envelopes. An envelope is
	// receivable — by a blocking receive or a non-blocking poll — as soon
	// as the transport has accepted it: no further goroutine has to run
	// first. Envelopes from one sender arrive in the order they were
	// sent, and the inbox is unbounded (a deaf receiver never blocks a
	// sender). The channel is closed when the Conn is closed, after any
	// backlog has been delivered or abandoned.
	Recv() <-chan *wire.Envelope
	// InboxDepthMax reports the most envelopes that have ever been queued
	// for Recv at once (the inbox high-water mark).
	InboxDepthMax() int
	// SetPeer installs or updates the transport address for a peer.
	// In-memory fabrics ignore it.
	SetPeer(id types.WorkerID, addr string)
	// DropPeer forgets a peer (it unregistered or crashed).
	DropPeer(id types.WorkerID)
	// LocalAddr returns this endpoint's address, or "" for in-memory.
	LocalAddr() string
	// Close tears the endpoint down and closes the Recv channel.
	Close() error
}

// ErrUnknownPeer is returned by Send when the destination has no known
// address or port.
var ErrUnknownPeer = errors.New("phishnet: unknown peer")

// ErrTooLarge is returned by Send when the encoded envelope exceeds what
// the transport can ever carry in one piece (a UDP datagram). Retrying the
// same envelope cannot succeed.
var ErrTooLarge = errors.New("phishnet: envelope too large for the transport")

// ErrClosed is returned by Send on a closed endpoint.
var ErrClosed = errors.New("phishnet: endpoint closed")
