package netsim

import (
	"errors"
	"fmt"
	"time"

	"unitp/internal/obs"
	"unitp/internal/sim"
)

// RetryPolicy governs how a sender reacts to transport failures:
// bounded attempts with exponential backoff and jitter, a per-attempt
// timeout, an overall deadline, and a classification of which errors are
// worth retrying at all. The zero value normalizes to a sane default.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Defaults to 4.
	MaxAttempts int

	// InitialBackoff is the pause before the first retransmission.
	// Zero means immediate retransmission (the legacy behaviour).
	InitialBackoff time.Duration

	// MaxBackoff caps the exponential growth. Defaults to 32× the
	// initial backoff when unset.
	MaxBackoff time.Duration

	// Multiplier scales the backoff between attempts (default 2).
	Multiplier float64

	// Jitter randomizes each backoff by ±Jitter fraction (0..1) so
	// synchronized clients do not retransmit in lockstep.
	Jitter float64

	// AttemptTimeout is how long a lost message costs before the sender
	// gives up on the attempt. Defaults to 2 s.
	AttemptTimeout time.Duration

	// Deadline bounds the whole retry sequence, backoffs included
	// (0 = no overall deadline).
	Deadline time.Duration

	// Retryable classifies errors; nil uses DefaultRetryable.
	Retryable func(error) bool
}

// DefaultRetryPolicy returns the policy the hardened client transport
// uses: 4 attempts, 100 ms initial backoff doubling to 2 s, ±20%
// jitter, 2 s per-attempt timeout, 30 s overall deadline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    4,
		InitialBackoff: 100 * time.Millisecond,
		MaxBackoff:     2 * time.Second,
		Multiplier:     2,
		Jitter:         0.2,
		AttemptTimeout: 2 * time.Second,
		Deadline:       30 * time.Second,
	}
}

// DefaultRetryable reports whether an error is transient at the
// transport level: timeouts, resets, corrupted frames, and peer-reported
// handler errors (a corrupted request looks like a handler error to the
// sender) are retryable — except a remote error the peer marked
// permanent (ErrCodePermanent), fenced (ErrCodeFenced: the sender's
// epoch is stale for good), or failed-over (ErrCodeFailover: this
// endpoint no longer serves the addressed role), which no
// retransmission can fix. Everything else is fatal.
func DefaultRetryable(err error) bool {
	if errors.Is(err, ErrTimeout) || errors.Is(err, ErrReset) || errors.Is(err, ErrCorruptFrame) {
		return true
	}
	var remote *RemoteError
	if errors.As(err, &remote) {
		switch remote.Code {
		case ErrCodePermanent, ErrCodeFenced, ErrCodeFailover:
			return false
		}
		return true
	}
	return false
}

// normalize fills zero fields with defaults.
func (rp *RetryPolicy) normalize() {
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = 4
	}
	if rp.Multiplier < 1 {
		rp.Multiplier = 2
	}
	if rp.MaxBackoff <= 0 {
		rp.MaxBackoff = 32 * rp.InitialBackoff
	}
	if rp.AttemptTimeout <= 0 {
		rp.AttemptTimeout = 2 * time.Second
	}
	if rp.Retryable == nil {
		rp.Retryable = DefaultRetryable
	}
}

// Run executes op under the policy, charging backoff pauses to the
// clock. It returns op's first success, its first non-retryable error
// verbatim, or the last retryable error wrapped with attempt context.
func (rp RetryPolicy) Run(clock sim.Clock, rng *sim.Rand, op func() ([]byte, error)) ([]byte, error) {
	rp.normalize()
	start := clock.Now()
	backoff := rp.InitialBackoff
	var lastErr error
	for attempt := 1; attempt <= rp.MaxAttempts; attempt++ {
		resp, err := op()
		if err == nil {
			return resp, nil
		}
		if !rp.Retryable(err) {
			return nil, err
		}
		lastErr = err
		if attempt == rp.MaxAttempts {
			break
		}
		pause := rp.jittered(backoff, rng)
		if rp.Deadline > 0 && clock.Now().Add(pause).Sub(start) >= rp.Deadline {
			return nil, fmt.Errorf("%w after %d attempts: %v", ErrDeadline, attempt, lastErr)
		}
		clock.Sleep(pause)
		backoff = time.Duration(float64(backoff) * rp.Multiplier)
		if backoff > rp.MaxBackoff {
			backoff = rp.MaxBackoff
		}
	}
	return nil, fmt.Errorf("after %d attempts: %w", rp.MaxAttempts, lastErr)
}

// jittered randomizes a backoff by ±Jitter fraction.
func (rp RetryPolicy) jittered(d time.Duration, rng *sim.Rand) time.Duration {
	if d <= 0 || rp.Jitter <= 0 || rng == nil {
		return d
	}
	span := float64(d) * rp.Jitter
	return time.Duration(float64(d) - span + 2*span*rng.Float64())
}

// RetryTransport wraps any Transport with a RetryPolicy — the way the
// real-connection client (wire.Client) gets the same recovery
// behaviour as the simulated pipe.
type RetryTransport struct {
	inner   Transport
	policy  RetryPolicy
	clock   sim.Clock
	rng     *sim.Rand
	metrics *obs.Registry
	tracer  *obs.Tracer
}

// NewRetryTransport wraps inner. A nil clock gets a virtual clock; a nil
// rng gets a fixed-seed source (jitter only, not security-relevant).
func NewRetryTransport(inner Transport, policy RetryPolicy, clock sim.Clock, rng *sim.Rand) *RetryTransport {
	if clock == nil {
		clock = sim.NewVirtualClock()
	}
	if rng == nil {
		rng = sim.NewRand(0x2E72)
	}
	policy.normalize()
	return &RetryTransport{inner: inner, policy: policy, clock: clock, rng: rng}
}

// Observe attaches live instrumentation: retry counters into m and
// per-session retry annotations into tr for frames carrying a
// correlation-ID envelope. Either may be nil.
func (t *RetryTransport) Observe(m *obs.Registry, tr *obs.Tracer) {
	t.metrics, t.tracer = m, tr
}

// RoundTrip implements Transport.
func (t *RetryTransport) RoundTrip(req []byte) ([]byte, error) {
	sid, hasSID := obs.PeekSession(req)
	attempt := 0
	return t.policy.Run(t.clock, t.rng, func() ([]byte, error) {
		attempt++
		if attempt > 1 {
			t.metrics.Counter("net.retries").Inc()
			if hasSID {
				t.tracer.Event(sid, "net.retry", fmt.Sprintf("attempt=%d", attempt))
			}
		}
		start := t.clock.Now()
		resp, err := t.inner.RoundTrip(req)
		if err == nil {
			t.metrics.Observe("net.rtt", t.clock.Now().Sub(start))
		}
		return resp, err
	})
}
