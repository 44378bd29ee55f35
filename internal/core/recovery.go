package core

import (
	"errors"
	"fmt"

	"unitp/internal/captcha"
	"unitp/internal/netsim"
	"unitp/internal/sim"
)

// The recovery layer sits above the single-shot protocol flows: a
// trusted-path session can die for many non-security reasons (lost or
// corrupted frames the transport retries could not mask, a challenge
// that expired while the link flapped, a provider reply the client could
// not decode). SubmitResilient retries whole sessions against those
// transient failures and, when the trusted path stays unusable, degrades
// to the provider's CAPTCHA gate — the paper's incumbent baseline — so
// the user can still transact, at a weaker assurance level that both
// sides record explicitly.

// ErrTrustedPathDown is returned when every trusted-path session attempt
// failed and the degradation threshold was not yet reached.
var ErrTrustedPathDown = errors.New("core: trusted path unavailable")

// fallbackAttempts bounds CAPTCHA rounds on the degraded path (the
// modelled human fails ~10% of challenges).
const fallbackAttempts = 3

// RecoveryConfig tunes session-level retries and graceful degradation.
type RecoveryConfig struct {
	// MaxSessionAttempts bounds full submit→challenge→confirm attempts
	// per SubmitResilient call (default 4).
	MaxSessionAttempts int

	// DegradeAfter is the consecutive-session-failure count at which
	// the client falls back to the CAPTCHA gate (default 3). The streak
	// persists across SubmitResilient calls and resets on any success.
	DegradeAfter int

	// Solver models who answers the fallback CAPTCHA (default
	// captcha.HumanSolver).
	Solver captcha.Solver

	// Rng drives the solver model (default a fixed-seed stream; fork
	// one from the deployment root for experiments).
	Rng *sim.Rand
}

// withDefaults fills unset fields.
func (rc RecoveryConfig) withDefaults() RecoveryConfig {
	if rc.MaxSessionAttempts <= 0 {
		rc.MaxSessionAttempts = 4
	}
	if rc.DegradeAfter <= 0 {
		rc.DegradeAfter = 3
	}
	if rc.Solver.Name == "" {
		rc.Solver = captcha.HumanSolver()
	}
	if rc.Rng == nil {
		rc.Rng = sim.NewRand(0x50F7)
	}
	return rc
}

// SessionResult reports how a resilient submission concluded.
type SessionResult struct {
	// Outcome is the provider's final answer.
	Outcome *Outcome

	// Attempts counts trusted-path sessions tried.
	Attempts int

	// Downgraded reports whether the transaction went through the
	// CAPTCHA gate instead of the trusted path.
	Downgraded bool
}

// retryableSessionError classifies a session failure: transport-level
// losses, resets, deadline blowouts, corrupted frames in either
// direction, and confused response types are all worth a fresh session;
// PAL refusals and missing provisioning are not — no amount of
// retransmission conjures a human or a key. A remote error the server
// explicitly marked permanent (e.g. a request it definitively refused)
// is likewise fatal, while overload-shed and draining responses stay
// retryable so the degradation machinery engages after a streak.
func retryableSessionError(err error) bool {
	if errors.Is(err, ErrPALFailed) || errors.Is(err, ErrNotProvisioned) {
		return false
	}
	var remote *netsim.RemoteError
	if errors.As(err, &remote) {
		return remote.Code != netsim.ErrCodePermanent
	}
	switch {
	case errors.Is(err, netsim.ErrTimeout),
		errors.Is(err, netsim.ErrReset),
		errors.Is(err, netsim.ErrDeadline),
		errors.Is(err, netsim.ErrCorruptFrame),
		errors.Is(err, ErrBadMessage),
		errors.Is(err, ErrUnexpectedResponse):
		return true
	}
	return false
}

// FailureStreak reports the client's current consecutive
// trusted-path-session failure count (tests, experiments).
func (c *Client) FailureStreak() int { return c.failStreak }

// SubmitResilient submits a transaction with session-level recovery:
// it retries failed trusted-path sessions, and once the consecutive
// failure streak reaches the degradation threshold it routes the
// transaction through the provider's CAPTCHA gate instead. A fatal
// error (PAL refusal, missing provisioning, fallback transport death)
// is returned as-is; exhausting the per-call attempt budget before the
// degradation threshold returns ErrTrustedPathDown with the streak
// preserved for the next call.
func (c *Client) SubmitResilient(tx *Transaction) (*SessionResult, error) {
	rc := c.recovery.withDefaults()
	// One trace spans the whole resilient submission: the inner
	// SubmitTransaction / fallbackSubmit calls join it (beginSession
	// returns owner=false for them), so every retry and the eventual
	// degradation land on a single correlation ID.
	tr, owner := c.beginSession("resilient " + tx.ID)
	defer c.endSession(tr, owner)
	res := &SessionResult{}
	lastReason := "trusted path failed"
	for attempt := 1; attempt <= rc.MaxSessionAttempts; attempt++ {
		res.Attempts = attempt
		if attempt > 1 {
			tr.Event("session.retry", fmt.Sprintf("attempt=%d last=%s", attempt, lastReason))
		}
		outcome, err := c.SubmitTransaction(tx)
		if err == nil && (outcome.Accepted || !outcome.Retryable) &&
			(outcome.TxID == "" || outcome.TxID == tx.ID) {
			// Terminal: accepted, denied by the user, or rejected for
			// cause. A fresh session would change nothing. An outcome
			// naming a *different* transaction is excluded: that is the
			// user at the trusted display correctly denying a stale or
			// substituted order, and the intended one deserves a fresh
			// session.
			c.failStreak = 0
			res.Outcome = outcome
			return res, nil
		}
		if err != nil {
			if !retryableSessionError(err) {
				return nil, err
			}
			lastReason = err.Error()
		} else {
			lastReason = outcome.Reason
		}
		c.failStreak++
		if c.failStreak >= rc.DegradeAfter {
			tr.Event("session.degrade", fmt.Sprintf("streak=%d reason=%s", c.failStreak, lastReason))
			outcome, err := c.fallbackSubmit(tx, rc, lastReason)
			if err != nil {
				return nil, err
			}
			if outcome.Accepted {
				c.failStreak = 0
			}
			res.Downgraded = true
			res.Outcome = outcome
			return res, nil
		}
	}
	return nil, fmt.Errorf("%w: %d session attempts, last failure: %s",
		ErrTrustedPathDown, res.Attempts, lastReason)
}

// fallbackSubmit pushes the transaction through the CAPTCHA gate: it
// announces the downgrade together with the transaction (the provider
// audit-logs the downgrade and binds the CAPTCHA to the order), solves
// the returned challenge with the configured solver model, and sends
// the answer. A wrong transcription burns one fallback attempt and
// requests a fresh challenge.
func (c *Client) fallbackSubmit(tx *Transaction, rc RecoveryConfig, reason string) (*Outcome, error) {
	tr, owner := c.beginSession("fallback " + tx.ID)
	defer c.endSession(tr, owner)
	clock := c.manager.Machine().Clock()
	var last *Outcome
	for try := 0; try < fallbackAttempts; try++ {
		tr.Event("fallback.request", fmt.Sprintf("try=%d", try+1))
		resp, err := c.roundTrip(&FallbackRequest{
			PlatformID: c.cert.PlatformID,
			Reason:     reason,
			Failures:   uint32(c.failStreak),
			Tx:         tx,
		})
		if err != nil {
			if retryableSessionError(err) {
				continue
			}
			return nil, err
		}
		ch, ok := resp.(*FallbackChallenge)
		if !ok {
			if o, isOutcome := resp.(*Outcome); isOutcome {
				return o, nil
			}
			return nil, fmt.Errorf("%w: %T to FallbackRequest", ErrUnexpectedResponse, resp)
		}
		answer := rc.Solver.Attempt(clock, rc.Rng, captcha.Challenge{Text: ch.Text})
		tr.Event("fallback.answer", fmt.Sprintf("try=%d", try+1))
		resp, err = c.roundTrip(&FallbackAnswer{Nonce: ch.Nonce, Response: answer})
		if err != nil {
			if retryableSessionError(err) {
				continue
			}
			return nil, err
		}
		outcome, isOutcome := resp.(*Outcome)
		if !isOutcome {
			return nil, fmt.Errorf("%w: %T to FallbackAnswer", ErrUnexpectedResponse, resp)
		}
		last = outcome
		if outcome.Accepted || !outcome.Retryable {
			return outcome, nil
		}
	}
	if last != nil {
		return last, nil
	}
	return nil, fmt.Errorf("%w: fallback path failed after %d attempts",
		ErrTrustedPathDown, fallbackAttempts)
}
