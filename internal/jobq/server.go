package jobq

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"phish/internal/types"
	"phish/internal/wire"
)

// ServerStats counts the requests a Server has dispatched, by kind. All
// fields are atomic; read them live from a telemetry registry.
type ServerStats struct {
	// Requests counts JobRequest calls; Grants is the subset answered
	// with a job (the rest found the pool empty).
	Requests atomic.Int64
	Grants   atomic.Int64
	// Submits and Dones count the remaining request kinds.
	Submits atomic.Int64
	Dones   atomic.Int64
}

// Server exposes a Pool over TCP: one length-prefixed request envelope in,
// one reply envelope out, connection kept open for further requests. The
// traffic is deliberately sparse — in the paper a workstation talks to the
// PhishJobQ at most once every 30 seconds. A held JobRequest parks its
// connection's goroutine on the pool (Pool.Await) until a job is there,
// its Hold runs out, or Close.
type Server struct {
	pool    *Pool
	ln      net.Listener
	wg      sync.WaitGroup
	stats   ServerStats
	closing chan struct{} // closed by Close: wakes held requests

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Stats exposes the server's request counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// NewServer starts serving pool on addr (":0" picks a port).
func NewServer(pool *Pool, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("jobq: listen %q: %w", addr, err)
	}
	s := &Server{pool: pool, ln: ln, closing: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and its connections, held requests included.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		close(s.closing)
	}
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	fr := wire.NewFrameReader(conn)
	for {
		env, err := fr.Next()
		if err != nil {
			return
		}
		reply := s.dispatch(env)
		if err := wire.WriteFrame(conn, reply); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(env *wire.Envelope) *wire.Envelope {
	var payload any
	switch p := env.Payload.(type) {
	case wire.JobRequest:
		s.stats.Requests.Add(1)
		spec, ok := s.request(p)
		if ok {
			s.stats.Grants.Add(1)
		}
		payload = wire.JobReply{OK: ok, Job: spec}
	case wire.JobSubmit:
		s.stats.Submits.Add(1)
		// ID 0 is a refusal: the pool could not persist the job.
		payload = wire.JobSubmitReply{ID: s.pool.Submit(p.Job)}
	case wire.JobDone:
		s.stats.Dones.Add(1)
		s.pool.Done(p.ID)
		// payload stays nil: a bare ack
	default:
		payload = wire.JobReply{OK: false}
	}
	return &wire.Envelope{Payload: payload}
}

// request answers a JobRequest: at once for a poll, when the pool has a
// job other than r.Skip or the hold runs out for a held one.
func (s *Server) request(r wire.JobRequest) (wire.JobSpec, bool) {
	if r.Hold <= 0 {
		return s.pool.take(r.Skip)
	}
	hold := time.NewTimer(r.Hold)
	defer hold.Stop()
	return s.pool.Await(r.Skip, hold.C, s.closing)
}

// ClientConfig tunes a Client's patience. The zero value means defaults.
type ClientConfig struct {
	// Timeout bounds each dial and each request round trip (default 5 s).
	// A held request (Await) gets its hold on top.
	Timeout time.Duration
	// Retries is how many attempts one call makes before giving up
	// (default 4). Each attempt redials if the connection went stale.
	Retries int
	// RetryBase is the pause before the second attempt; it doubles per
	// attempt, jittered ±25%, capped at 16× (default 100 ms). The backoff
	// keeps a herd of JobManagers that all lost the PhishJobQ from
	// hammering it the instant it restarts.
	RetryBase time.Duration
}

func (cfg ClientConfig) withDefaults() ClientConfig {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 4
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	return cfg
}

// Client talks to a jobq Server. Each call dials lazily and reuses the
// connection; on error the connection is dropped and the call retries on
// a fresh one with exponential backoff.
type Client struct {
	addr string
	cfg  ClientConfig
	mu   sync.Mutex
	conn net.Conn
	fr   *wire.FrameReader
}

// NewClient returns a client of the server at addr with default timeouts.
func NewClient(addr string) *Client { return NewClientWith(addr, ClientConfig{}) }

// NewClientWith returns a client with explicit timeout/retry tuning.
func NewClientWith(addr string, cfg ClientConfig) *Client {
	return &Client{addr: addr, cfg: cfg.withDefaults()}
}

// Close drops the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn, c.fr = nil, nil
		return err
	}
	return nil
}

// errCancelled ends a held request whose cancel closed.
var errCancelled = errors.New("jobq: request cancelled")

// call sends one request and reads its reply. The server may hold the
// request up to hold, so the round trip's deadline is Timeout+hold; closing
// cancel (nil: never) closes the connection and ends the call without a
// retry.
func (c *Client) call(payload any, hold time.Duration, cancel <-chan struct{}) (*wire.Envelope, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	wait := c.cfg.RetryBase
	for attempt := 0; attempt < c.cfg.Retries; attempt++ {
		if attempt > 0 {
			// Jittered exponential backoff between attempts.
			select {
			case <-time.After(time.Duration(float64(wait) * (0.75 + 0.5*rand.Float64()))):
			case <-cancel:
				return nil, errCancelled
			}
			if wait < 16*c.cfg.RetryBase {
				wait *= 2
			}
		}
		if c.conn == nil {
			conn, err := net.DialTimeout("tcp", c.addr, c.cfg.Timeout)
			if err != nil {
				lastErr = err
				continue
			}
			c.conn = conn
			c.fr = wire.NewFrameReader(conn)
		}
		_ = c.conn.SetDeadline(time.Now().Add(c.cfg.Timeout + hold))
		unwatch := closeOnCancel(c.conn, cancel)
		var reply *wire.Envelope
		err := wire.WriteFrame(c.conn, &wire.Envelope{Payload: payload})
		if err == nil {
			reply, err = c.fr.Next()
		}
		if unwatch() && err == nil {
			_ = c.conn.SetDeadline(time.Time{})
			return reply, nil
		}
		// Stale connection; retry on a fresh one.
		lastErr = err
		_ = c.conn.Close()
		c.conn, c.fr = nil, nil
		select {
		case <-cancel:
			return nil, errCancelled
		default:
		}
	}
	return nil, fmt.Errorf("jobq: request failed after %d attempts: %w", c.cfg.Retries, lastErr)
}

// closeOnCancel closes conn if cancel closes before the returned unwatch is
// called; unwatch reports whether conn is still open.
func closeOnCancel(conn net.Conn, cancel <-chan struct{}) (unwatch func() bool) {
	if cancel == nil {
		return func() bool { return true }
	}
	done := make(chan struct{})
	open := make(chan bool, 1)
	go func() {
		select {
		case <-cancel:
			_ = conn.Close()
			open <- false
		case <-done:
			open <- true
		}
	}()
	return func() bool {
		close(done)
		return <-open
	}
}

// Request asks for a job assignment.
func (c *Client) Request(ws types.WorkstationID) (wire.JobSpec, bool, error) {
	return c.Await(ws, 0, 0, nil)
}

// Await is Request held at the server: it asks for a job other than skip
// and waits up to hold for one to be submitted (see Pool.Await). ok is
// false when the hold ran out; closing cancel ends the wait with an error.
func (c *Client) Await(ws types.WorkstationID, skip types.JobID, hold time.Duration, cancel <-chan struct{}) (wire.JobSpec, bool, error) {
	reply, err := c.call(wire.JobRequest{Workstation: ws, Skip: skip, Hold: hold}, hold, cancel)
	if err != nil {
		return wire.JobSpec{}, false, err
	}
	r, ok := reply.Payload.(wire.JobReply)
	if !ok {
		return wire.JobSpec{}, false, fmt.Errorf("jobq: unexpected reply %T", reply.Payload)
	}
	return r.Job, r.OK, nil
}

// errSubmitRefused is a submit the server answered with id 0.
var errSubmitRefused = errors.New("jobq: submit refused: the job pool cannot persist the job")

// Submit places a job in the pool and returns its id.
func (c *Client) Submit(spec wire.JobSpec) (types.JobID, error) {
	reply, err := c.call(wire.JobSubmit{Job: spec}, 0, nil)
	if err != nil {
		return 0, err
	}
	r, ok := reply.Payload.(wire.JobSubmitReply)
	if !ok {
		return 0, fmt.Errorf("jobq: unexpected reply %T", reply.Payload)
	}
	if r.ID == 0 {
		return 0, errSubmitRefused
	}
	return r.ID, nil
}

// Done removes a finished job.
func (c *Client) Done(id types.JobID) error {
	_, err := c.call(wire.JobDone{ID: id}, 0, nil)
	return err
}
