package core

import (
	"crypto/rsa"
	"crypto/sha256"

	"unitp/internal/attest"
	"unitp/internal/cryptoutil"
	"unitp/internal/obs"
)

// The parallel verify stage. preVerify runs every pure-CPU check a
// proof message needs — evidence decoding, AIK-certificate and quote-
// signature verification, HMAC computation, OAEP key unwrap — BEFORE
// the provider takes the state lock, so concurrent requests verify in
// parallel and the serialized state transition shrinks to map updates,
// a ledger apply, and an audit append.
//
// Two rules keep this stage equivalent to inline verification:
//
//  1. It runs only when peekLive says the live proof path would run the
//     same crypto (pending entry present, right kind, unexpired). For
//     replays, stale proofs, and unknown nonces the stage is skipped
//     and the outcome functions take exactly the old route.
//  2. It counts nothing. Every stat and counter is still attributed by
//     the outcome functions under the state transition, exactly once,
//     in the old order — a pre-computed failure is carried as data and
//     re-attributed where the inline check would have failed.
//
// A nil pre-struct always means "not pre-verified": the outcome
// functions fall back to the identical inline computation, so a race
// between peek and take (or a proof the stage skipped) degrades to
// inline verification. TestInlineVerifyMatchesPreVerified pins the two
// routes to the same responses, stats and audit entries.

// preVerified carries the per-flow pre-computed verification for one
// request. At most one field is non-nil.
type preVerified struct {
	confirm   *preConfirm
	presence  *prePresence
	provision *preProvision
	login     *preLogin
	batch     *preBatch
	session   *preSession
}

func (pv *preVerified) confirmPart() *preConfirm {
	if pv == nil {
		return nil
	}
	return pv.confirm
}

func (pv *preVerified) presencePart() *prePresence {
	if pv == nil {
		return nil
	}
	return pv.presence
}

func (pv *preVerified) provisionPart() *preProvision {
	if pv == nil {
		return nil
	}
	return pv.provision
}

func (pv *preVerified) loginPart() *preLogin {
	if pv == nil {
		return nil
	}
	return pv.login
}

func (pv *preVerified) batchPart() *preBatch {
	if pv == nil {
		return nil
	}
	return pv.batch
}

func (pv *preVerified) sessionPart() *preSession {
	if pv == nil {
		return nil
	}
	return pv.session
}

// preConfirm is the pre-computed verification of a ConfirmTx. The
// fields mirror confirmOutcome's checks stepwise; computation stops at
// the first failure, exactly like the inline path.
type preConfirm struct {
	// ModeQuote.
	evErr     error
	res       *attest.Result
	verifyErr error
	// ModeHMAC. The key is re-read at pre-verify time; if the platform
	// re-provisions concurrently with its own confirmation the MAC check
	// may fail spuriously — retryable, and the client raced itself.
	keyKnown bool
	macOK    bool
}

// prePresence is the pre-computed verification of a PresenceProof.
type prePresence struct {
	evErr     error
	verifyErr error
}

// preProvision is the pre-computed verification of a ProvisionComplete:
// evidence check, then (only if the platform matches the certificate,
// as inline) the OAEP unwrap of the transported key.
type preProvision struct {
	evErr     error
	res       *attest.Result
	verifyErr error
	key       []byte
	decErr    error
}

// preLogin carries a login proof's evidence verification. ran is false
// when the cheap gate checks (username match, credential enrolled)
// failed at pre-verify time — the outcome function re-runs those gates
// authoritatively and only trusts res/failReason when ran is true.
type preLogin struct {
	ran        bool
	res        *attest.Result
	failReason string
}

// preSession carries a session-open proof's evidence verification and
// OAEP key unwrap, mirroring preSessionProve's inline sequence.
type preSession struct {
	res        *attest.Result
	failReason string
	key        []byte
	decErr     error
}

// preBatch carries a batch confirmation's evidence verification. ran is
// false when the decision count didn't match the pending batch (no
// crypto runs inline in that case either).
type preBatch struct {
	ran bool
	// ModeQuote.
	res        *attest.Result
	failReason string
	// ModeHMAC.
	keyKnown bool
	macOK    bool
}

// preVerify runs the verify stage for one decoded message, returning
// nil for message types that carry no proof, or when the proof would
// not reach its crypto on the live path.
func (p *Provider) preVerify(msg any, tr *obs.SessionTrace) *preVerified {
	switch m := msg.(type) {
	case *ConfirmTx:
		pend, ok := p.peekLive(m.Nonce, pendingConfirm)
		if !ok {
			return nil
		}
		if pc := p.preConfirmTx(m, pend, tr); pc != nil {
			return &preVerified{confirm: pc}
		}
	case *PresenceProof:
		if _, ok := p.peekLive(m.Nonce, pendingPresence); !ok {
			return nil
		}
		return &preVerified{presence: p.prePresenceProof(m)}
	case *ProvisionComplete:
		if _, ok := p.peekLive(m.Nonce, pendingProvision); !ok || p.key == nil {
			return nil
		}
		return &preVerified{provision: p.preProvisionComplete(m)}
	case *LoginProof:
		pend, ok := p.peekLive(m.Nonce, pendingLogin)
		if !ok {
			return nil
		}
		return &preVerified{login: p.preLoginProof(m, pend)}
	case *ConfirmBatch:
		pend, ok := p.peekLive(m.Nonce, pendingBatch)
		if !ok {
			return nil
		}
		if pb := p.preConfirmBatch(m, pend); pb != nil {
			return &preVerified{batch: pb}
		}
	case *SessionProve:
		pend, ok := p.peekLive(m.Nonce, pendingSession)
		if !ok || p.key == nil || pend.username != m.Account {
			// Account-mismatched proofs are rejected by the inline gate
			// before any crypto runs; matching that means skipping here.
			return nil
		}
		return &preVerified{session: p.preSessionProve(m, tr)}
	}
	return nil
}

// preConfirmTx mirrors confirmOutcome's crypto. The provider.verify
// span is emitted here (not in the outcome function) when the quote is
// actually verified, preserving the per-session span sequence.
func (p *Provider) preConfirmTx(m *ConfirmTx, pend pendingChallenge, tr *obs.SessionTrace) *preConfirm {
	pc := &preConfirm{}
	txDigest := pend.tx.Digest()
	switch m.Mode {
	case ModeQuote:
		ev, err := attest.UnmarshalEvidence(m.Evidence)
		if err != nil {
			pc.evErr = err
			return pc
		}
		binding := ConfirmationBinding(m.Nonce, txDigest, m.Confirmed)
		vsp := tr.StartSpan("provider.verify")
		pc.res, pc.verifyErr = p.verifier.Verify(ev, attest.Expectations{
			Nonce:         m.Nonce,
			ExpectedPCR23: ExpectedAppPCR(binding),
		})
		vsp.End()
	case ModeHMAC:
		p.mu.Lock()
		key, ok := p.hmacKeys[m.PlatformID]
		p.mu.Unlock()
		pc.keyKnown = ok
		if ok {
			pc.macOK = cryptoutil.VerifyHMACSHA256(key, MACMessage(m.Nonce, txDigest, m.Confirmed), m.MAC)
		}
	default:
		// Unknown mode runs no crypto; let the outcome path reject it.
		return nil
	}
	return pc
}

// prePresenceProof mirrors presenceOutcome's crypto.
func (p *Provider) prePresenceProof(m *PresenceProof) *prePresence {
	pp := &prePresence{}
	ev, err := attest.UnmarshalEvidence(m.Evidence)
	if err != nil {
		pp.evErr = err
		return pp
	}
	_, pp.verifyErr = p.verifier.Verify(ev, attest.Expectations{
		Nonce:         m.Nonce,
		ExpectedPCR23: ExpectedAppPCR(PresenceBinding(m.Nonce)),
	})
	return pp
}

// preProvisionComplete mirrors provisionOutcome's crypto, stopping at
// the first failure just like the inline sequence: unmarshal, verify,
// platform match, OAEP unwrap.
func (p *Provider) preProvisionComplete(m *ProvisionComplete) *preProvision {
	pp := &preProvision{}
	ev, err := attest.UnmarshalEvidence(m.Evidence)
	if err != nil {
		pp.evErr = err
		return pp
	}
	binding := ProvisionBinding(m.Nonce, cryptoutil.SHA1(m.EncKey))
	pp.res, pp.verifyErr = p.verifier.Verify(ev, attest.Expectations{
		Nonce:         m.Nonce,
		ExpectedPCR23: ExpectedAppPCR(binding),
	})
	if pp.verifyErr != nil || pp.res.PlatformID != m.PlatformID {
		return pp
	}
	pp.key, pp.decErr = rsa.DecryptOAEP(sha256.New(), nil, p.key, m.EncKey, oaepLabel)
	return pp
}

// preLoginProof mirrors loginOutcome's gate checks and, when they pass,
// its evidence verification.
func (p *Provider) preLoginProof(m *LoginProof, pend pendingChallenge) *preLogin {
	pl := &preLogin{}
	if pend.username != m.Username {
		return pl
	}
	p.mu.Lock()
	cred, enrolled := p.creds[m.Username]
	p.mu.Unlock()
	if !enrolled {
		return pl
	}
	binding := LoginBinding(m.Nonce, cred)
	pl.res, pl.failReason = p.verifyEvidenceRaw(m.Evidence, attest.Expectations{
		Nonce:         m.Nonce,
		ExpectedPCR23: ExpectedAppPCR(binding),
	}, PINPALName)
	pl.ran = true
	return pl
}

// preConfirmBatch mirrors batchOutcome's crypto.
func (p *Provider) preConfirmBatch(m *ConfirmBatch, pend pendingChallenge) *preBatch {
	if len(m.Decisions) != len(pend.batch) {
		return nil
	}
	pb := &preBatch{ran: true}
	digests := txDigests(pend.batch)
	binding := BatchBinding(m.Nonce, digests, m.Decisions)
	switch m.Mode {
	case ModeQuote:
		pb.res, pb.failReason = p.verifyEvidenceRaw(m.Evidence, attest.Expectations{
			Nonce:         m.Nonce,
			ExpectedPCR23: ExpectedAppPCR(binding),
		}, BatchPALName)
	case ModeHMAC:
		p.mu.Lock()
		key, ok := p.hmacKeys[m.PlatformID]
		p.mu.Unlock()
		pb.keyKnown = ok
		if ok {
			pb.macOK = verifyBindingMAC(key, binding, m.MAC)
		}
	default:
		return nil
	}
	return pb
}
