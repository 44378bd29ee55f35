// Package wire is the real TCP transport of the trusted-path protocol:
// the same length-prefixed frame codec and correlation-ID envelope that
// internal/netsim runs over in-process pipes, carried over genuine
// sockets so tpserver, tpclient, and tpbench interoperate across
// processes and machines with zero changes to provider or fleet logic.
//
// The package has two halves. Server is a hardened accept loop: a
// bounded connection pool with overload shedding (shed responses encode
// as retryable error frames, so the sender's RetryPolicy backoff and
// SubmitResilient degradation engage transparently), per-peer connection
// quotas and token-bucket frame rate limits, per-connection idle and
// write deadlines, a bounded per-connection worker pool that keeps
// responses in request order, and graceful drain on shutdown (stop
// accepting, let in-flight requests finish within a deadline, then hang
// up). Client is a supervised netsim.Transport: it pipelines round
// trips over one connection (responses match requests positionally, the
// order Server's per-connection writer preserves), fails in-flight
// requests fast when the connection dies, and reconnects lazily under a
// capped exponential backoff with jitter — the caller's RetryPolicy
// (netsim.RetryTransport) supplies the retries, the supervisor supplies
// the pacing.
//
// Both halves publish connection-lifecycle metrics into an
// obs.Registry, so a tpserver -admin /metrics page shows accepted,
// active, shed, rejected, rate-limited, and reconnect counts next to
// the provider's own counters.
package wire

import (
	"errors"
	"fmt"
	"time"

	"unitp/internal/netsim"
)

// Transport errors. All of them are transient by design: the sender's
// retry policy classifies them via netsim.DefaultRetryable (remote
// errors carrying netsim.ErrCodePermanent are the only fatal frames).
var (
	// ErrOverloaded is returned (and shipped as an ErrCodeOverloaded
	// error frame) when the server sheds a connection or request.
	ErrOverloaded = errors.New("wire: server overloaded")

	// ErrDraining is returned (and shipped as an ErrCodeDraining error
	// frame) when the server is in graceful shutdown.
	ErrDraining = errors.New("wire: server draining")

	// ErrQuota is the per-peer connection-quota refusal.
	ErrQuota = errors.New("wire: per-peer connection quota exceeded")

	// ErrRateLimited is the per-peer token-bucket refusal.
	ErrRateLimited = errors.New("wire: per-peer rate limit exceeded")

	// ErrConnDown marks a round trip failed fast because the underlying
	// connection died or the reconnect backoff gate is closed. It wraps
	// netsim.ErrReset so netsim.DefaultRetryable (and the session-level
	// classifier in core) treat it as transient without knowing this
	// package exists.
	ErrConnDown = fmt.Errorf("wire: connection down (%w)", netsim.ErrReset)

	// ErrClientClosed is returned by round trips after Client.Close.
	// Deliberately NOT retryable: the client is gone for good.
	ErrClientClosed = errors.New("wire: client closed")

	// ErrPipelineFull is returned when a client round trip would exceed
	// the configured in-flight pipeline depth. It wraps netsim.ErrTimeout
	// — to the sender, a saturated pipeline and a slow server are the
	// same condition: back off and retry.
	ErrPipelineFull = fmt.Errorf("wire: client pipeline full (%w)", netsim.ErrTimeout)
)

// Default hardening knobs, shared by Server and Client.
const (
	// DefaultMaxConns bounds the server's accept pool.
	DefaultMaxConns = 256

	// DefaultMaxConnsPerPeer bounds connections per remote IP.
	DefaultMaxConnsPerPeer = 64

	// DefaultPeerBurst is the per-peer token-bucket capacity when a
	// frame rate limit is configured.
	DefaultPeerBurst = 64

	// DefaultIdleTimeout closes a connection with no complete frame
	// activity for this long.
	DefaultIdleTimeout = 2 * time.Minute

	// DefaultWriteTimeout bounds one frame write (a slowloris reader
	// cannot pin a handler goroutine forever).
	DefaultWriteTimeout = 30 * time.Second

	// DefaultDrainTimeout bounds graceful shutdown's wait for in-flight
	// requests.
	DefaultDrainTimeout = 10 * time.Second

	// DefaultResponseTimeout bounds one client round trip (write +
	// server handling + response read).
	DefaultResponseTimeout = 30 * time.Second

	// DefaultDialTimeout bounds one client connection attempt.
	DefaultDialTimeout = 5 * time.Second

	// DefaultReconnectMin and DefaultReconnectMax bound the client's
	// capped exponential reconnect backoff.
	DefaultReconnectMin = 50 * time.Millisecond
	DefaultReconnectMax = 5 * time.Second

	// DefaultReconnectJitter randomizes each reconnect pause by ±this
	// fraction so a restarted server is not hit by a thundering herd.
	DefaultReconnectJitter = 0.2

	// DefaultMaxInflight bounds the client's pipelined round trips.
	DefaultMaxInflight = 64
)
