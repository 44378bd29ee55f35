package core

import (
	"errors"
	"fmt"

	"unitp/internal/attest"
)

// BindPlatform ties an account to a certified platform pseudonym: once
// bound, confirmations for that account are only accepted from that
// platform. This closes the cuckoo/relay attack (malware forwarding the
// challenge to an attacker-controlled machine whose *own* genuine PAL
// and human produce a valid confirmation — valid, but from the wrong
// computer). Binding happens at account setup, out of band.
func (p *Provider) BindPlatform(account, platformID string) error {
	if account == "" || platformID == "" {
		return fmt.Errorf("core: empty account or platform ID")
	}
	return p.mutateDurable(func(j *journal) error {
		p.mu.Lock()
		defer p.mu.Unlock()
		if prev, ok := p.platforms[account]; ok && prev != platformID {
			return fmt.Errorf("core: account %s already bound to %s", account, prev)
		}
		p.platforms[account] = platformID
		j.platformBound(account, platformID)
		return nil
	})
}

// boundPlatform returns the platform an account is bound to ("" if
// unbound).
func (p *Provider) boundPlatform(account string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.platforms[account]
}

// checkPlatformBinding rejects evidence from the wrong platform for a
// bound account.
func (p *Provider) checkPlatformBinding(account, platformID string) string {
	bound := p.boundPlatform(account)
	if bound == "" || bound == platformID {
		return ""
	}
	p.count(func(s *ProviderStats) { s.RejectedForged++ })
	return "confirmation came from a platform not bound to this account"
}

// EnrollCredential registers a username/PIN pair for trusted-path login.
// (Out-of-band account setup; the provider stores only the credential
// digest.)
func (p *Provider) EnrollCredential(username, pin string) error {
	if username == "" || pin == "" {
		return fmt.Errorf("core: empty username or PIN")
	}
	return p.mutateDurable(func(j *journal) error {
		p.mu.Lock()
		defer p.mu.Unlock()
		if _, ok := p.creds[username]; ok {
			return fmt.Errorf("core: credential for %s already enrolled", username)
		}
		digest := CredentialDigest(username, pin)
		p.creds[username] = digest
		j.credentialEnrolled(username, digest)
		return nil
	})
}

// verifyEvidenceRaw decodes and checks evidence against expectations
// plus the expected PAL identity label. It is pure computation — no
// stats — so the parallel verify stage can run it ahead of the state
// transition and carry the result (preverify.go).
func (p *Provider) verifyEvidenceRaw(raw []byte, want attest.Expectations, expectedPAL string) (*attest.Result, string) {
	ev, err := attest.UnmarshalEvidence(raw)
	if err != nil {
		return nil, "malformed evidence"
	}
	res, err := p.verifier.Verify(ev, want)
	if err != nil {
		return nil, "attestation failed: " + err.Error()
	}
	if expectedPAL != "" && res.PALName != expectedPAL {
		return nil, fmt.Sprintf("wrong PAL for this flow: %s", res.PALName)
	}
	return res, ""
}

// verifyEvidence is verifyEvidenceRaw plus forgery accounting: any
// failure counts as RejectedForged, exactly once.
func (p *Provider) verifyEvidence(raw []byte, want attest.Expectations, expectedPAL string) (*attest.Result, string) {
	res, failReason := p.verifyEvidenceRaw(raw, want, expectedPAL)
	if failReason != "" {
		p.count(func(s *ProviderStats) { s.RejectedForged++ })
	}
	return res, failReason
}

// handleLoginRequest issues a PIN-entry challenge for any username,
// enrolled or not, so the response's shape does not reveal which
// usernames exist; loginOutcome fails the proof of an unenrolled one.
func (p *Provider) handleLoginRequest(m *LoginRequest, j *journal) any {
	if len(m.Username) > maxNameLen {
		return &Outcome{Accepted: false, Reason: fmt.Sprintf("username of %d bytes exceeds %d", len(m.Username), maxNameLen)}
	}
	nonce := p.issueChallenge(pendingChallenge{kind: pendingLogin, username: m.Username}, j)
	p.count(func(s *ProviderStats) { s.Challenged++ })
	p.ins.challenged.Inc()
	return &LoginChallenge{Nonce: nonce, Username: m.Username}
}

// handleLoginProof verifies a PIN login proof.
func (p *Provider) handleLoginProof(m *LoginProof, pre *preLogin, j *journal) any {
	pend, cached, rejection := p.takePending(m.Nonce, pendingLogin, j)
	if cached != nil {
		return cached
	}
	if rejection != "" {
		return &Outcome{Accepted: false, Reason: rejection, Retryable: true}
	}
	return p.rememberOutcome(m.Nonce, p.loginOutcome(m, pend, pre, j), j)
}

// loginOutcome computes the outcome of a live login proof. The gate
// checks (username match, credential enrolled) always re-run here —
// they are authoritative and cheap; only the evidence verification is
// consumed from the verify stage when available.
func (p *Provider) loginOutcome(m *LoginProof, pend pendingChallenge, pre *preLogin, j *journal) *Outcome {
	if pend.username != m.Username {
		p.count(func(s *ProviderStats) { s.LoginsRejected++ })
		return &Outcome{Accepted: false, Reason: "username does not match challenge"}
	}
	p.mu.Lock()
	cred, enrolled := p.creds[m.Username]
	p.mu.Unlock()
	if !enrolled {
		p.count(func(s *ProviderStats) { s.LoginsRejected++ })
		return &Outcome{Accepted: false, Reason: "login failed"}
	}
	var failReason string
	if pre != nil && pre.ran {
		failReason = pre.failReason
		if failReason != "" {
			p.count(func(s *ProviderStats) { s.RejectedForged++ })
		}
	} else {
		binding := LoginBinding(m.Nonce, cred)
		_, failReason = p.verifyEvidence(m.Evidence, attest.Expectations{
			Nonce:         m.Nonce,
			ExpectedPCR23: ExpectedAppPCR(binding),
		}, PINPALName)
	}
	if failReason != "" {
		p.count(func(s *ProviderStats) { s.LoginsRejected++ })
		// A wrong PIN surfaces as a binding mismatch; report it as a
		// login failure rather than leaking verifier detail.
		return &Outcome{Accepted: false, Reason: "login failed"}
	}
	token := fmt.Sprintf("session-%016x", p.rng.Uint64())
	p.mu.Lock()
	p.presence[token] = true
	p.stats.LoginsGranted++
	p.mu.Unlock()
	j.presenceTokenGranted(token)
	return &Outcome{Accepted: true, Authentic: true, Reason: "login verified", Token: token}
}

// handleSubmitBatch processes a batch submission: validate every order,
// then challenge the whole batch at once.
func (p *Provider) handleSubmitBatch(m *SubmitBatch, j *journal) any {
	p.count(func(s *ProviderStats) { s.Submitted += len(m.Txs) })
	p.ins.submitted.Add(int64(len(m.Txs)))
	if len(m.Txs) == 0 || len(m.Txs) > maxBatchSize {
		return &Outcome{Accepted: false, Reason: fmt.Sprintf("batch size %d outside [1, %d]", len(m.Txs), maxBatchSize)}
	}
	total := 0
	for i := range m.Txs {
		if err := m.Txs[i].Validate(); err != nil {
			return &Outcome{Accepted: false, Reason: err.Error(), TxID: m.Txs[i].ID}
		}
		total += 4 + m.Txs[i].size()
	}
	if total > maxPendingTxBytes {
		return &Outcome{Accepted: false, Reason: fmt.Sprintf("%v: batch encoding of %d bytes exceeds %d",
			ErrInvalidTransaction, total, maxPendingTxBytes)}
	}
	batch := make([]Transaction, len(m.Txs))
	copy(batch, m.Txs)
	nonce := p.issueChallenge(pendingChallenge{kind: pendingBatch, batch: batch}, j)
	p.count(func(s *ProviderStats) { s.Challenged++ })
	p.ins.challenged.Inc()
	return &BatchChallenge{Nonce: nonce, Txs: batch}
}

// handleConfirmBatch verifies a batch confirmation and applies the
// approved transactions.
func (p *Provider) handleConfirmBatch(m *ConfirmBatch, pre *preBatch, j *journal) any {
	pend, cached, rejection := p.takePending(m.Nonce, pendingBatch, j)
	if cached != nil {
		return cached
	}
	if rejection != "" {
		return &Outcome{Accepted: false, Reason: rejection, Retryable: true}
	}
	return p.rememberOutcome(m.Nonce, p.batchOutcome(m, pend, pre, j), j)
}

// batchOutcome computes the outcome of a live batch confirmation,
// consuming the verify stage's pre-computed crypto when available.
func (p *Provider) batchOutcome(m *ConfirmBatch, pend pendingChallenge, pre *preBatch, j *journal) *Outcome {
	if len(m.Decisions) != len(pend.batch) {
		p.count(func(s *ProviderStats) { s.RejectedForged++ })
		return &Outcome{Accepted: false, Reason: "decision count does not match batch"}
	}
	if pre == nil || !pre.ran {
		pre = p.preConfirmBatch(m, pend) // nil for an unknown mode
	}

	attestingPlatform := m.PlatformID
	switch m.Mode {
	case ModeQuote:
		if pre.failReason != "" {
			p.count(func(s *ProviderStats) { s.RejectedForged++ })
			// Integrity failures are retryable: transit corruption and
			// forgery look alike, and a fresh session is harmless (see
			// confirmOutcome).
			return &Outcome{Accepted: false, Reason: pre.failReason, Retryable: true}
		}
		attestingPlatform = pre.res.PlatformID
	case ModeHMAC:
		if !pre.keyKnown {
			p.count(func(s *ProviderStats) { s.RejectedForged++ })
			return &Outcome{Accepted: false, Reason: "platform has no provisioned key", Retryable: true}
		}
		if !pre.macOK {
			p.count(func(s *ProviderStats) { s.RejectedForged++ })
			return &Outcome{Accepted: false, Reason: "batch MAC invalid", Retryable: true}
		}
	default:
		p.count(func(s *ProviderStats) { s.RejectedForged++ })
		return &Outcome{Accepted: false, Reason: "unknown confirmation mode", Retryable: true}
	}

	// Cuckoo/relay defence across the whole batch.
	for i := range pend.batch {
		if reason := p.checkPlatformBinding(pend.batch[i].From, attestingPlatform); reason != "" {
			return &Outcome{Accepted: false, Reason: reason}
		}
	}

	applied, denied, failed := 0, 0, 0
	for i := range pend.batch {
		if !m.Decisions[i] {
			denied++
			continue
		}
		if err := p.applyTx(&pend.batch[i], j); err != nil {
			if errors.Is(err, ErrDuplicateTransaction) {
				// Already executed in an earlier life; idempotent.
				applied++
				continue
			}
			failed++
			continue
		}
		applied++
	}
	p.count(func(s *ProviderStats) {
		s.BatchesConfirmed++
		s.Confirmed += applied
		s.DeniedByUser += denied
		s.LedgerRejected += failed
	})
	return &Outcome{
		Accepted:  applied > 0 && failed == 0,
		Authentic: true,
		Reason:    fmt.Sprintf("batch: %d applied, %d denied, %d failed", applied, denied, failed),
	}
}
