package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/sim"
)

// ClientConfig configures a supervised TCP transport.
type ClientConfig struct {
	// Addr is the server address (host:port). Ignored when Dial is set.
	Addr string

	// Dial, when non-nil, replaces the default TCP dial (tests, exotic
	// transports).
	Dial func() (net.Conn, error)

	// Handshake, when non-nil, runs on every (re)connect before the
	// connection carries round trips — tpclient's enrollment exchange.
	// An error frame received here should be surfaced as a
	// *netsim.RemoteError so supervision classifies it (see
	// ReadHandshakeFrame).
	Handshake func(conn net.Conn) error

	// ResponseTimeout bounds one round trip: each request arms a read
	// deadline this far out (default DefaultResponseTimeout).
	ResponseTimeout time.Duration

	// WriteTimeout bounds one frame write (default
	// DefaultWriteTimeout).
	WriteTimeout time.Duration

	// DialTimeout bounds one connection attempt (default
	// DefaultDialTimeout).
	DialTimeout time.Duration

	// ReconnectMin/ReconnectMax bound the capped exponential backoff
	// between dial attempts after a connection failure.
	ReconnectMin, ReconnectMax time.Duration

	// MaxInflight bounds pipelined round trips on the connection
	// (default DefaultMaxInflight). The protocol matches responses to
	// requests positionally; Server's per-connection writer keeps
	// responses in request order.
	MaxInflight int

	// Metrics receives reconnect/failure counters. nil runs unmetered.
	Metrics *obs.Registry

	// Rng drives backoff jitter (default a fixed-seed stream; not
	// security relevant).
	Rng *sim.Rand
}

// call is one in-flight round trip awaiting its positional response.
type call struct {
	ch chan callResult
}

type callResult struct {
	resp []byte
	err  error
}

// Client is a netsim.Transport over a supervised TCP connection:
// pipelined round trips, fail-fast on connection death, lazy reconnect
// under capped exponential backoff with jitter. Safe for concurrent
// use; couple it with netsim.NewRetryTransport for retries.
type Client struct {
	cfg ClientConfig

	mu       sync.Mutex
	conn     net.Conn
	gen      int // connection generation, guards reader teardown
	inflight []*call
	closed   bool
	backoff  time.Duration
	nextDial time.Time
	everUp   bool
	fatal    error // a fatal handshake refusal (fenced/permanent); latches
}

var _ netsim.Transport = (*Client)(nil)

// NewClient builds a supervised transport; no connection is made until
// Connect or the first RoundTrip.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Dial == nil {
		addr := cfg.Addr
		timeout := cfg.DialTimeout
		if timeout <= 0 {
			timeout = DefaultDialTimeout
		}
		cfg.Dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) }
	}
	if cfg.ResponseTimeout <= 0 {
		cfg.ResponseTimeout = DefaultResponseTimeout
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = DefaultReconnectMin
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = DefaultReconnectMax
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.Rng == nil {
		cfg.Rng = sim.NewRand(0x31BE)
	}
	return &Client{cfg: cfg}
}

// Connect eagerly establishes the connection (running the handshake),
// respecting the reconnect backoff gate. RoundTrip connects lazily, so
// calling this is optional — it exists for clients whose handshake
// yields material needed before the first request (tpclient's AIK
// certificate).
func (c *Client) Connect() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	if c.conn != nil {
		return nil
	}
	return c.connectLocked()
}

// connectLocked dials and handshakes under the backoff gate. On failure
// the gate advances (capped exponential backoff with jitter); on
// success it resets.
func (c *Client) connectLocked() error {
	if c.fatal != nil {
		return c.fatal
	}
	if wait := time.Until(c.nextDial); wait > 0 {
		return fmt.Errorf("%w: reconnect backoff, %s remaining", ErrConnDown, wait.Round(time.Millisecond))
	}
	conn, err := c.cfg.Dial()
	if err != nil {
		c.scheduleRedialLocked()
		c.count("wire.client.dial_failures")
		return fmt.Errorf("%w: dial: %v", ErrConnDown, err)
	}
	if c.cfg.Handshake != nil {
		conn.SetReadDeadline(time.Now().Add(c.cfg.ResponseTimeout))
		conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
		if err := c.cfg.Handshake(conn); err != nil {
			conn.Close()
			c.scheduleRedialLocked()
			c.count("wire.client.handshake_failures")
			// A remote refusal (shed, draining) keeps its identity so
			// the caller's policy classifies it; local errors wrap
			// ErrConnDown. A *fatal* refusal — the peer fenced this
			// client's role epoch or refused it permanently — latches:
			// redialing with the same handshake can only be refused
			// again, so every subsequent round trip fails immediately
			// with the refusal instead of hammering the peer.
			var remote *netsim.RemoteError
			if errors.As(err, &remote) {
				switch remote.Code {
				case netsim.ErrCodePermanent, netsim.ErrCodeFenced:
					c.fatal = err
					c.count("wire.client.handshake_fatal")
				}
				return err
			}
			return fmt.Errorf("%w: handshake: %v", ErrConnDown, err)
		}
		conn.SetReadDeadline(time.Time{})
		conn.SetWriteDeadline(time.Time{})
	}
	if c.everUp {
		c.count("wire.client.reconnects")
	}
	c.everUp = true
	c.backoff = 0
	c.nextDial = time.Time{}
	c.conn = conn
	c.gen++
	go c.readLoop(conn, c.gen)
	return nil
}

// scheduleRedialLocked advances the backoff gate after a failure.
func (c *Client) scheduleRedialLocked() {
	if c.backoff <= 0 {
		c.backoff = c.cfg.ReconnectMin
	} else {
		c.backoff *= 2
		if c.backoff > c.cfg.ReconnectMax {
			c.backoff = c.cfg.ReconnectMax
		}
	}
	span := float64(c.backoff) * DefaultReconnectJitter
	pause := time.Duration(float64(c.backoff) - span + 2*span*c.cfg.Rng.Float64())
	c.nextDial = time.Now().Add(pause)
}

// RoundTrip implements netsim.Transport: write the request on the
// supervised connection and wait for its positional response. Every
// connection failure is fast and transient-classified, so an outer
// RetryPolicy drives retries while the backoff gate paces actual
// redials. A request larger than netsim.MaxFrameSize can never be sent:
// it fails at once with an error wrapping netsim.ErrFrameTooLarge,
// which no retry policy retries, and the connection stays up.
func (c *Client) RoundTrip(req []byte) ([]byte, error) {
	if len(req) > netsim.MaxFrameSize {
		return nil, fmt.Errorf("wire: %d-byte request: %w", len(req), netsim.ErrFrameTooLarge)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if c.conn == nil {
		if err := c.connectLocked(); err != nil {
			c.mu.Unlock()
			return nil, err
		}
	}
	if len(c.inflight) >= c.cfg.MaxInflight {
		c.mu.Unlock()
		return nil, ErrPipelineFull
	}
	conn := c.conn
	cl := &call{ch: make(chan callResult, 1)}
	c.inflight = append(c.inflight, cl)
	// Write under the lock: queue order must equal wire order, that is
	// the whole matching discipline. The write deadline bounds the hold.
	conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	// Each outstanding request re-arms the read deadline; the reader
	// clears it when the pipeline empties.
	conn.SetReadDeadline(time.Now().Add(c.cfg.ResponseTimeout))
	err := netsim.WriteFrame(conn, req)
	if err != nil {
		c.dropConnLocked(conn, fmt.Errorf("write: %w", err))
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: write: %v", ErrConnDown, err)
	}
	c.mu.Unlock()

	res := <-cl.ch
	return res.resp, res.err
}

// readLoop delivers responses to in-flight calls in FIFO order until
// the connection dies, then fails the remainder fast.
func (c *Client) readLoop(conn net.Conn, gen int) {
	for {
		frame, err := netsim.ReadFrame(conn)
		if err != nil {
			c.mu.Lock()
			if c.gen == gen {
				c.dropConnLocked(conn, err)
			}
			c.mu.Unlock()
			return
		}
		var res callResult
		if code, msg, isErr := netsim.DecodeErrorFrameCode(frame); isErr {
			res.err = &netsim.RemoteError{Msg: msg, Code: code}
		} else {
			res.resp = frame
		}
		c.mu.Lock()
		if c.gen != gen {
			// The connection was torn down (its calls already failed);
			// this is a straggler response on a dead generation.
			c.mu.Unlock()
			return
		}
		if len(c.inflight) == 0 {
			// A response nobody asked for: protocol desync — the only
			// safe reaction is to drop the connection.
			c.dropConnLocked(conn, errors.New("wire: unsolicited response frame"))
			c.mu.Unlock()
			return
		}
		cl := c.inflight[0]
		c.inflight = c.inflight[1:]
		if len(c.inflight) == 0 {
			conn.SetReadDeadline(time.Time{}) // idle: no response expected
		}
		c.mu.Unlock()
		cl.ch <- res
	}
}

// dropConnLocked tears down the current connection: closes it, fails
// every in-flight call fast with a retryable error, and opens the
// backoff gate for the next dial. Callers hold c.mu and must pass the
// conn they observed (a stale drop on a newer connection is a no-op via
// the gen check in callers).
func (c *Client) dropConnLocked(conn net.Conn, cause error) {
	conn.Close()
	if c.conn == conn {
		c.conn = nil
		c.gen++ // invalidate the reader bound to this conn
	}
	failed := c.inflight
	c.inflight = nil
	c.scheduleRedialLocked()
	if !c.closed {
		// A deliberate Close tears the connection down too, but that is
		// not a failure worth alarming on.
		c.count("wire.client.conn_failures")
	}
	err := fmt.Errorf("%w: %v", ErrConnDown, cause)
	for _, cl := range failed {
		cl.ch <- callResult{err: err}
	}
}

// Close tears the client down; subsequent round trips fail with
// ErrClientClosed and in-flight ones fail fast.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn != nil {
		c.dropConnLocked(c.conn, ErrClientClosed)
	}
	return nil
}

// count bumps a counter (nil-registry safe).
func (c *Client) count(name string) {
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Counter(name).Inc()
	}
}

// handshakeTag prefixes server handshake payloads so they can never be
// confused with an error frame: protocol frames are forbidden to start
// with 0x00, but handshake payloads are raw bytes (certificates,
// key material) that may — so WriteHandshakeFrame tags them and
// ReadHandshakeFrame strips the tag.
const handshakeTag = 0x01

// WriteHandshakeFrame sends a handshake payload tagged so the receiver
// can distinguish it from a refusal error frame even when the payload
// itself begins with 0x00.
func WriteHandshakeFrame(conn net.Conn, payload []byte) error {
	tagged := make([]byte, 1+len(payload))
	tagged[0] = handshakeTag
	copy(tagged[1:], payload)
	return netsim.WriteFrame(conn, tagged)
}

// ReadHandshakeFrame reads one frame during a client handshake: a
// server refusal (an error frame — overload shed, drain, quota) becomes
// a *netsim.RemoteError so supervision and retry policies classify it;
// a tagged payload (WriteHandshakeFrame) is returned untagged; an
// untagged frame is returned as-is for peers that send bare payloads
// known not to start with 0x00.
func ReadHandshakeFrame(conn net.Conn) ([]byte, error) {
	frame, err := netsim.ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	if code, msg, isErr := netsim.DecodeErrorFrameCode(frame); isErr {
		return nil, &netsim.RemoteError{Msg: msg, Code: code}
	}
	if len(frame) > 0 && frame[0] == handshakeTag {
		return frame[1:], nil
	}
	return frame, nil
}
