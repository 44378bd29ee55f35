package core

import (
	"crypto/ecdh"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"time"

	"unitp/internal/attest"
	"unitp/internal/cryptoutil"
	"unitp/internal/obs"
)

// Attested session re-confirmation. One full quote verification (the
// session open) buys a stream of cheap confirmations: the session-open
// PAL runs an X25519 exchange against the provider's key-agreement key,
// seals the derived session key to the session-confirm PAL's identity,
// and quotes a binding that pins the challenge nonce, the account, the
// client-chosen session ID, and the digest of the client's public
// share. From then on each confirmation is an HMAC over the
// confirmation binding plus a strictly increasing counter — symmetric
// crypto on both sides — until policy forces a full re-quote: after
// SessionMaxTx confirmations, after SessionMaxAge, on any MAC failure,
// on a replayed counter, or when the session's PAL is revoked from the
// approved set. Every demotion deletes the session; the client's only
// way forward is a fresh quote.
//
// The exchange replaced RSA-OAEP key sealing for throughput: an OAEP
// unwrap is an RSA private decrypt (~1ms of CPU), which at re-quote
// interval N puts a 1ms/N floor under every session-mode confirmation
// and caps the fast path's advantage over per-transaction quotes. One
// X25519 multiplication is ~10× cheaper and scheme-independent. The
// trust argument is unchanged: the quote still pins the client's share,
// so a substituted share fails verification, and only the holder of the
// provider's key-agreement key can derive the session key. A tampered
// provider KexPub in the challenge yields mismatched keys — every MAC
// fails and the session demotes — denial of service, never forgery,
// exactly as a tampered RSA key behaved before.
//
// Sessions are deliberately NOT journaled: they are derived trust, not
// obligations. A provider restart or a fleet failover loses the table,
// so every session crossing an instance boundary is refused and forced
// through a full re-quote on the new instance — exactly the conservative
// behavior the trust argument wants, for free.

// Session policy defaults.
const (
	defaultSessionMaxTx  = 64
	defaultSessionMaxAge = 10 * time.Minute
)

// sessionKexLabel domain-separates the session-key derivation (and the
// provider's key-agreement key derivation) from every other use of the
// underlying primitives.
var sessionKexLabel = []byte("unitp.session.kex.v1")

// sessionKeyLen is the session HMAC key size.
const sessionKeyLen = 32

// attSession is one live attested session. All fields are guarded by
// the provider's sessMu; key and the identity fields are immutable
// after registration, counter and used advance under the lock.
type attSession struct {
	key      []byte
	account  string
	platform string
	palName  string
	openedAt time.Time
	counter  uint64
	used     uint32
}

// handleSessionOpen issues a session-open challenge. The pending
// context reuses the username field for the account (the journal wire
// format for pending challenges is unchanged); everything else the
// proof needs rides in SessionProve and is enforced by the quoted
// binding.
func (p *Provider) handleSessionOpen(m *SessionOpen, j *journal) any {
	if p.key == nil {
		return &Outcome{Accepted: false, Reason: "provider does not support attested sessions"}
	}
	if m.PlatformID == "" || m.Account == "" {
		return &Outcome{Accepted: false, Reason: "missing platform ID or account"}
	}
	nonce := p.issueChallenge(pendingChallenge{kind: pendingSession, username: m.Account}, j)
	p.count(func(s *ProviderStats) { s.Challenged++ })
	p.ins.challenged.Inc()
	return &SessionChallenge{
		Nonce:          nonce,
		ProviderPubDER: p.PublicKeyDER(),
		KexPub:         p.kexKey.PublicKey().Bytes(),
		Scheme:         p.SchemeID(),
		MaxTx:          p.sessMaxTx,
		MaxAgeNano:     uint64(p.sessMaxAge),
	}
}

// handleSessionProve verifies a session-open proof and registers the
// session. On success the response is a SessionGrant; the replay cache
// still records an Outcome so retransmitted proofs get an idempotent
// (if less informative) answer instead of a stale rejection.
func (p *Provider) handleSessionProve(m *SessionProve, pre *preSession, j *journal, tr *obs.SessionTrace) any {
	pend, cached, rejection := p.takePending(m.Nonce, pendingSession, j)
	if cached != nil {
		tr.Event("provider.replay", "cached outcome returned")
		return cached
	}
	if rejection != "" {
		return &Outcome{Accepted: false, Reason: rejection, Retryable: true}
	}
	grant, outcome := p.sessionOpenOutcome(m, pend, pre, j, tr)
	p.rememberOutcome(m.Nonce, outcome, j)
	if grant != nil {
		return grant
	}
	return outcome
}

// sessionOpenOutcome computes the outcome of a live session-open proof.
// It returns a non-nil grant exactly when the session was registered.
func (p *Provider) sessionOpenOutcome(m *SessionProve, pend pendingChallenge, pre *preSession, j *journal, tr *obs.SessionTrace) (*SessionGrant, *Outcome) {
	if p.key == nil {
		return nil, &Outcome{Accepted: false, Reason: "provider does not support attested sessions"}
	}
	// The account gate is authoritative here (pend came from the
	// journal-backed challenge), cheap, and runs before any crypto.
	if pend.username != m.Account {
		p.count(func(s *ProviderStats) { s.RejectedForged++ })
		return nil, &Outcome{Accepted: false, Reason: "account does not match challenge"}
	}
	if pre == nil {
		pre = p.preSessionProve(m, tr)
	}
	if pre.failReason != "" {
		p.count(func(s *ProviderStats) { s.RejectedForged++ })
		return nil, &Outcome{Accepted: false, Reason: pre.failReason, Retryable: true}
	}
	if pre.res.PlatformID != m.PlatformID {
		p.count(func(s *ProviderStats) { s.RejectedForged++ })
		return nil, &Outcome{Accepted: false, Reason: "platform ID does not match certificate"}
	}
	// Cuckoo/relay defence, as on the per-transaction path: the platform
	// opening the session must be the one bound to the account.
	if reason := p.checkPlatformBinding(m.Account, pre.res.PlatformID); reason != "" {
		return nil, &Outcome{Accepted: false, Reason: reason}
	}
	if pre.decErr != nil {
		p.count(func(s *ProviderStats) { s.RejectedForged++ })
		return nil, &Outcome{Accepted: false, Reason: "session key transport failed", Retryable: true}
	}

	now := p.clock.Now()
	p.sessMu.Lock()
	if _, exists := p.sessions[m.SessionID]; exists {
		p.sessMu.Unlock()
		// Client-chosen IDs make evidence mintable before first contact;
		// the price is that a collision must be refused, never merged.
		return nil, &Outcome{Accepted: false, Reason: "session ID already in use", Retryable: true}
	}
	p.sessions[m.SessionID] = &attSession{
		key:      pre.key,
		account:  m.Account,
		platform: pre.res.PlatformID,
		palName:  pre.res.PALName,
		openedAt: now,
	}
	p.sessMu.Unlock()

	// The opening quote goes into the audit chain: every later
	// session-mode entry names this session, and a dispute traces the
	// symmetric confirmations back to this one attested record. TxDigest
	// carries the session binding (not a transaction digest) so an
	// auditor re-verifies the evidence from the entry alone; TxID
	// carries the account.
	asp := tr.StartSpan("provider.audit")
	p.auditAppend(AuditEntry{
		Kind:      AuditSessionOpen,
		At:        now,
		TxID:      m.Account,
		TxDigest:  SessionBinding(m.Nonce, m.Account, m.SessionID, cryptoutil.SHA1(m.EncKey)),
		Confirmed: true,
		Nonce:     m.Nonce,
		Evidence:  m.Evidence,
		Note:      fmt.Sprintf("session %016x opened by platform %s", m.SessionID, pre.res.PlatformID),
	}, j)
	asp.End()

	p.count(func(s *ProviderStats) { s.SessionsOpened++ })
	p.ins.sessionsOpened.Inc()
	if tr != nil {
		tr.Event("provider.session_opened", fmt.Sprintf("session=%016x", m.SessionID))
	}
	return &SessionGrant{
			SessionID:  m.SessionID,
			MaxTx:      p.sessMaxTx,
			MaxAgeNano: uint64(p.sessMaxAge),
		}, &Outcome{
			Accepted: true, Authentic: true,
			Reason: fmt.Sprintf("session %016x established", m.SessionID),
		}
}

// handleConfirmSession answers a confirmation challenge in session mode.
// The challenge consumed is an ordinary pendingConfirm — only the proof
// differs from ModeQuote/ModeHMAC.
func (p *Provider) handleConfirmSession(m *ConfirmTxSession, j *journal, tr *obs.SessionTrace) any {
	pend, cached, rejection := p.takePending(m.Nonce, pendingConfirm, j)
	if cached != nil {
		tr.Event("provider.replay", "cached outcome returned")
		return cached
	}
	if rejection != "" {
		return &Outcome{Accepted: false, Reason: rejection, Retryable: true}
	}
	return p.rememberOutcome(m.Nonce, p.sessionConfirmOutcome(m, pend, j, tr), j)
}

// sessionConfirmOutcome computes the outcome of a live session-mode
// confirmation. Every demotion rule deletes the session and returns a
// retryable rejection naming the re-quote requirement — the client's
// recovery path is always the same: open a fresh session with a full
// quote.
//
// The MAC is verified inside the session lock rather than in the
// parallel verify stage: an HMAC over ~100 bytes costs well under a
// microsecond (that is the whole point of session mode), and checking
// it against the same key instance the counter advances on closes the
// race where a session is demoted and re-opened between a pre-verify
// and the state transition.
func (p *Provider) sessionConfirmOutcome(m *ConfirmTxSession, pend pendingChallenge, j *journal, tr *obs.SessionTrace) *Outcome {
	txDigest := pend.tx.Digest()
	now := p.clock.Now()

	p.sessMu.Lock()
	sess := p.sessions[m.SessionID]
	if sess == nil {
		p.sessMu.Unlock()
		p.count(func(s *ProviderStats) { s.RejectedStale++ })
		return &Outcome{
			Accepted: false, TxID: pend.tx.ID, Retryable: true,
			Reason: "unknown or expired session; full re-quote required",
		}
	}
	if reason, forged := p.sessionCheckLocked(sess, m, txDigest, pend, now); reason != "" {
		delete(p.sessions, m.SessionID)
		p.sessMu.Unlock()
		p.count(func(s *ProviderStats) {
			s.SessionDemotions++
			if forged {
				s.RejectedForged++
			}
		})
		p.ins.sessionsDemoted.Inc()
		tr.Event("provider.session_demoted", reason)
		return &Outcome{
			Accepted: false, TxID: pend.tx.ID, Retryable: true,
			Reason: "session demoted (" + reason + "); full re-quote required",
		}
	}
	sess.counter = m.Counter
	sess.used++
	sid := m.SessionID
	p.sessMu.Unlock()

	// Authenticated decision: audited exactly like the quote path, with
	// the mode recorded in the entry kind and the session identity in
	// the note. No evidence — the vouching quote is the session's
	// AuditSessionOpen entry.
	asp := tr.StartSpan("provider.audit")
	p.auditAppend(AuditEntry{
		Kind:      AuditSessionConfirm,
		At:        now,
		TxID:      pend.tx.ID,
		TxDigest:  txDigest,
		Confirmed: m.Confirmed,
		Nonce:     m.Nonce,
		Note:      fmt.Sprintf("session %016x counter %d", sid, m.Counter),
	}, j)
	asp.End()

	if !m.Confirmed {
		p.count(func(s *ProviderStats) { s.DeniedByUser++ })
		return &Outcome{Accepted: false, Authentic: true, Reason: "denied by user", TxID: pend.tx.ID}
	}
	lsp := tr.StartSpan("provider.ledger")
	defer lsp.End()
	if err := p.applyTx(pend.tx, j); err != nil {
		if errors.Is(err, ErrDuplicateTransaction) {
			return &Outcome{Accepted: true, Authentic: true, Reason: "confirmed by user (already executed)", TxID: pend.tx.ID}
		}
		p.count(func(s *ProviderStats) { s.LedgerRejected++ })
		return &Outcome{Accepted: false, Authentic: true, Reason: err.Error(), TxID: pend.tx.ID}
	}
	p.count(func(s *ProviderStats) {
		s.Confirmed++
		s.SessionsConfirmed++
	})
	p.ins.sessionsConfirmed.Inc()
	return &Outcome{Accepted: true, Authentic: true, Reason: "confirmed by user (session)", TxID: pend.tx.ID}
}

// sessionCheckLocked applies the demotion rules in order and returns a
// non-empty reason for the first violated one (forged marks rules whose
// violation implies a forgery attempt rather than policy expiry). The
// caller holds sessMu.
func (p *Provider) sessionCheckLocked(sess *attSession, m *ConfirmTxSession, txDigest cryptoutil.Digest, pend pendingChallenge, now time.Time) (reason string, forged bool) {
	if pend.tx.From != sess.account {
		return "session not valid for this account", true
	}
	if r := p.checkPlatformBinding(sess.account, sess.platform); r != "" {
		return "platform no longer bound to account", false
	}
	// PCR-profile change: the PAL whose launch the opening quote proved
	// has been revoked since. Symmetric trust derived from a quote dies
	// with the quote's policy.
	if !p.verifier.PALApproved(sess.palName) {
		return "session PAL no longer approved", false
	}
	if now.Sub(sess.openedAt) > p.sessMaxAge {
		return "session expired", false
	}
	if sess.used >= p.sessMaxTx {
		return "session transaction budget exhausted", false
	}
	if m.Counter <= sess.counter {
		return "session counter not strictly increasing", true
	}
	if !cryptoutil.VerifyHMACSHA256(sess.key,
		SessionMACMessage(m.Nonce, txDigest, m.Confirmed, m.SessionID, m.Counter), m.MAC) {
		return "confirmation MAC invalid", true
	}
	return "", false
}

// sweepSessions expires overdue sessions, returning how many it
// evicted. Session expiry is counted separately from challenge expiry —
// the two pools age under different policies and the metrics split
// (provider.gc.expired_sessions vs provider.gc.expired_challenges)
// keeps their GC behavior independently observable.
func (p *Provider) sweepSessions(now time.Time) int {
	expired := 0
	p.sessMu.Lock()
	for sid, sess := range p.sessions {
		if now.Sub(sess.openedAt) > p.sessMaxAge {
			delete(p.sessions, sid)
			expired++
		}
	}
	p.sessMu.Unlock()
	return expired
}

// LiveSessions reports the number of registered attested sessions.
func (p *Provider) LiveSessions() int {
	p.sessMu.Lock()
	defer p.sessMu.Unlock()
	return len(p.sessions)
}

// SchemeID reports the quote-signature crypto profile this provider
// verifies (the value negotiated in session and fleet handshakes).
func (p *Provider) SchemeID() cryptoutil.SchemeID { return p.verifier.SchemeID() }

// SessionPolicy reports the enforced re-quote policy.
func (p *Provider) SessionPolicy() (maxTx uint32, maxAge time.Duration) {
	return p.sessMaxTx, p.sessMaxAge
}

// SigBatchStats reports the cohort signature batcher's counters
// (cohorts cut, signatures verified through them). Zero when the
// scheme is not batch-capable.
func (p *Provider) SigBatchStats() (cohorts, sigs uint64) {
	if p.sigbatch == nil {
		return 0, 0
	}
	return p.sigbatch.stats()
}

// preSessionProve mirrors sessionOpenOutcome's crypto: evidence
// verification against the session binding, then the X25519 derivation
// of the shared session key. Pure computation, run by the parallel
// verify stage outside every provider lock (kexKey is immutable after
// construction).
func (p *Provider) preSessionProve(m *SessionProve, tr *obs.SessionTrace) *preSession {
	ps := &preSession{}
	binding := SessionBinding(m.Nonce, m.Account, m.SessionID, cryptoutil.SHA1(m.EncKey))
	vsp := tr.StartSpan("provider.verify")
	ps.res, ps.failReason = p.verifyEvidenceRaw(m.Evidence, attest.Expectations{
		Nonce:         m.Nonce,
		ExpectedPCR23: ExpectedAppPCR(binding),
	}, p.sessPALName)
	vsp.End()
	if ps.failReason != "" {
		return ps
	}
	ps.key, ps.decErr = p.sessionKeyFromShare(m.EncKey, m.Nonce)
	return ps
}

// SessionKeyLen is the session HMAC key size, exported for harnesses
// that mint session keys outside a PAL run.
const SessionKeyLen = sessionKeyLen

// sessionKexKey derives the provider's static X25519 key-agreement key
// from its RSA identity key. Deriving (rather than drawing from the
// provider's randomness stream) keeps two properties: a restored
// provider answers in-flight session opens identically to the instance
// it replaced, and providers that never see a session leave the seeded
// experiment outputs byte-stable.
func sessionKexKey(key *rsa.PrivateKey) *ecdh.PrivateKey {
	seed := sha256.Sum256(append(x509.MarshalPKCS1PrivateKey(key), sessionKexLabel...))
	k, err := ecdh.X25519().NewPrivateKey(seed[:])
	if err != nil {
		// Any 32-byte string is a valid X25519 scalar (clamping happens
		// in the multiplication); this cannot fail on a SHA-256 output.
		panic(fmt.Sprintf("core: session kex key: %v", err))
	}
	return k
}

// deriveSessionKey turns the raw X25519 shared secret into the session
// HMAC key, binding both public shares and the challenge nonce so a
// key is only ever valid for the exchange that produced it.
func deriveSessionKey(shared []byte, nonce attest.Nonce, clientPub, kexPub []byte) []byte {
	msg := make([]byte, 0, len(sessionKexLabel)+len(nonce)+len(clientPub)+len(kexPub))
	msg = append(msg, sessionKexLabel...)
	msg = append(msg, nonce[:]...)
	msg = append(msg, clientPub...)
	msg = append(msg, kexPub...)
	return cryptoutil.HMACSHA256(shared, msg)
}

// sessionKeyFromShare is the provider half of the exchange: multiply
// the client's ephemeral share by the static key-agreement scalar and
// derive. A malformed share (wrong length, low-order point) fails here
// and the open is refused.
func (p *Provider) sessionKeyFromShare(clientPub []byte, nonce attest.Nonce) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(clientPub)
	if err != nil {
		return nil, fmt.Errorf("core: session key share: %w", err)
	}
	shared, err := p.kexKey.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("core: session key exchange: %w", err)
	}
	return deriveSessionKey(shared, nonce, clientPub, p.kexKey.PublicKey().Bytes()), nil
}

// SessionKeyExchange runs the client half of the session-key agreement
// against a provider's advertised KexPub: a fresh ephemeral share is
// drawn from random, and the returned clientPub is what SessionProve
// carries as EncKey — and what the quoted session binding must pin.
// Exported for load generators and benchmarks that mint session-open
// evidence without a PAL run; the session-open PAL performs the same
// exchange with PAL-internal randomness.
func SessionKeyExchange(random io.Reader, kexPub []byte, nonce attest.Nonce) (key, clientPub []byte, err error) {
	curve := ecdh.X25519()
	remote, err := curve.NewPublicKey(kexPub)
	if err != nil {
		return nil, nil, fmt.Errorf("core: provider kex key: %w", err)
	}
	eph, err := curve.GenerateKey(random)
	if err != nil {
		return nil, nil, fmt.Errorf("core: session ephemeral: %w", err)
	}
	shared, err := eph.ECDH(remote)
	if err != nil {
		return nil, nil, fmt.Errorf("core: session key exchange: %w", err)
	}
	clientPub = eph.PublicKey().Bytes()
	return deriveSessionKey(shared, nonce, clientPub, kexPub), clientPub, nil
}
