package attest

import (
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"unitp/internal/cryptoutil"
	"unitp/internal/sim"
	"unitp/internal/tpm"
)

// Verification errors.
var (
	// ErrUnapprovedPAL is returned when the quoted PCR 17 does not
	// correspond to any PAL on the approved list.
	ErrUnapprovedPAL = errors.New("attest: quoted PCR17 matches no approved PAL")

	// ErrNonceMismatch is returned when the quote's external data is
	// not the expected challenge nonce.
	ErrNonceMismatch = errors.New("attest: quote external data does not match challenge nonce")

	// ErrOutputMismatch is returned when the quoted application PCR
	// does not carry the expected output binding.
	ErrOutputMismatch = errors.New("attest: quoted PCR23 does not match expected output binding")

	// ErrMissingPCR is returned when a required PCR is absent from the
	// quote's selection.
	ErrMissingPCR = errors.New("attest: required PCR missing from quote selection")

	// ErrCertRevoked is returned for evidence from a revoked platform.
	ErrCertRevoked = errors.New("attest: platform certificate revoked")

	// ErrCertExpired is returned when certificate validity checking is
	// enabled and the AIK certificate is older than the allowed age.
	ErrCertExpired = errors.New("attest: AIK certificate expired")

	// ErrSchemeMismatch is returned when evidence carries a crypto
	// profile other than the one this verifier is configured for. Mixed
	// profiles must fail loudly, never silently cross-verify.
	ErrSchemeMismatch = errors.New("attest: evidence crypto profile does not match verifier profile")
)

// evidenceSchemeTag prefixes the wire form of evidence whose AIK
// certificate belongs to a non-RSA profile. The legacy form starts with
// the uint32 length of the certificate bytes (< 2^24, so first byte
// 0x00), making the tag unambiguous.
const evidenceSchemeTag = 0xE2

// Evidence is what a client submits: its AIK certificate and a TPM quote.
type Evidence struct {
	// Cert is the client's AIK certificate from a trusted privacy CA.
	Cert *AIKCert

	// Quote is the TPM quote over (at least) PCR 17 and PCR 23.
	Quote *tpm.Quote
}

// Marshal encodes the evidence for wire transport. RSA evidence keeps
// the pre-scheme encoding byte for byte; other profiles carry a scheme
// tag so a legacy decoder refuses them instead of misparsing.
func (e *Evidence) Marshal() []byte {
	cert := e.Cert.Marshal()
	quote := e.Quote.Marshal()
	b := cryptoutil.NewBuffer(len(cert) + len(quote) + 10)
	if e.Cert.Scheme != cryptoutil.SchemeRSA {
		b.PutUint8(evidenceSchemeTag)
		b.PutUint8(uint8(e.Cert.Scheme))
	}
	b.PutBytes(cert)
	b.PutBytes(quote)
	return b.Bytes()
}

// UnmarshalEvidence decodes evidence from wire bytes.
func UnmarshalEvidence(data []byte) (*Evidence, error) {
	r := cryptoutil.NewReader(data)
	var tagged cryptoutil.SchemeID
	if len(data) > 0 && data[0] == evidenceSchemeTag {
		r.Uint8() // tag
		tagged = cryptoutil.SchemeID(r.Uint8())
		if tagged == cryptoutil.SchemeRSA {
			return nil, fmt.Errorf("attest: unmarshal evidence: RSA evidence with scheme tag")
		}
	}
	certBytes := r.Bytes()
	quoteBytes := r.Bytes()
	if err := r.ExpectEOF(); err != nil {
		return nil, fmt.Errorf("attest: unmarshal evidence: %w", err)
	}
	cert, err := UnmarshalAIKCert(certBytes)
	if err != nil {
		return nil, err
	}
	if cert.Scheme != tagged {
		return nil, fmt.Errorf("%w: envelope says %s, certificate says %s",
			ErrSchemeMismatch, tagged, cert.Scheme)
	}
	quote, err := tpm.UnmarshalQuote(quoteBytes)
	if err != nil {
		return nil, err
	}
	return &Evidence{Cert: cert, Quote: quote}, nil
}

// Expectations states what a verifier demands of one piece of evidence.
type Expectations struct {
	// Nonce is the challenge nonce the quote must embed.
	Nonce Nonce

	// ExpectedPCR23 is the output-binding value PCR 23 must show
	// (computed by the protocol layer from the transaction and the
	// user's confirmation).
	ExpectedPCR23 cryptoutil.Digest

	// SkipOutputCheck disables the PCR 23 check for attestations that
	// carry no application output (e.g. a bare human-presence proof
	// whose binding travels inside PCR 23 anyway would not set this;
	// it exists for protocol variants and ablations).
	SkipOutputCheck bool
}

// Result is a successful verification outcome.
type Result struct {
	// PALName is the approved PAL the quote proves ran.
	PALName string

	// PALMeasurement is that PAL's identity digest.
	PALMeasurement cryptoutil.Digest

	// PlatformID is the certified platform pseudonym.
	PlatformID string
}

// palEntry is one approved launch identity.
type palEntry struct {
	name        string
	measurement cryptoutil.Digest // the PAL's own measurement (last in chain)
}

// verifierPolicy is an immutable snapshot of the verifier's policy
// state. Mutators build a fresh copy and swap the pointer; Verify loads
// the pointer once and reads without any lock, so concurrent
// verifications never contend on approval or revocation reads.
type verifierPolicy struct {
	approved map[cryptoutil.Digest]palEntry // capped PCR17 -> entry
	byName   map[string]cryptoutil.Digest   // PAL name -> capped PCR17
	revoked  map[string]bool                // revoked platform IDs

	// cert validity (optional)
	clock      sim.Clock
	maxCertAge time.Duration
}

// clone copies the policy for a copy-on-write mutation.
func (pol *verifierPolicy) clone() *verifierPolicy {
	next := &verifierPolicy{
		approved:   make(map[cryptoutil.Digest]palEntry, len(pol.approved)),
		byName:     make(map[string]cryptoutil.Digest, len(pol.byName)),
		revoked:    make(map[string]bool, len(pol.revoked)),
		clock:      pol.clock,
		maxCertAge: pol.maxCertAge,
	}
	for k, v := range pol.approved {
		next.approved[k] = v
	}
	for k, v := range pol.byName {
		next.byName[k] = v
	}
	for k, v := range pol.revoked {
		next.revoked[k] = v
	}
	return next
}

// certCacheLimit bounds the verified-certificate cache. When full, the
// cache is cleared wholesale (re-verifying a certificate is correct,
// just slower, so eviction needs no bookkeeping).
const certCacheLimit = 4096

// Verifier checks evidence against an approved-PAL policy. It is safe
// for concurrent use: policy reads go through an immutable snapshot,
// and certificates that already passed signature verification are
// remembered so repeat evidence from the same platform skips the RSA
// verify. Revocation and expiry are checked per call against the live
// policy — only the signature check (which cannot change for the same
// bytes) is cached.
type Verifier struct {
	caPub *rsa.PublicKey

	// scheme is the crypto profile this verifier accepts. Evidence
	// under any other profile fails with ErrSchemeMismatch. Immutable
	// after construction-time SetScheme.
	scheme cryptoutil.Scheme

	mu     sync.Mutex // serializes mutators; readers use policy only
	policy atomic.Pointer[verifierPolicy]

	certMu   sync.RWMutex
	certSeen map[[32]byte]struct{} // SHA-256 of verified cert wire forms

	// cert-cache effectiveness counters (atomic; see CertCacheStats).
	certHits   atomic.Uint64
	certMisses atomic.Uint64

	// optional mirrors into an external metrics registry.
	onCertHit  func()
	onCertMiss func()
}

// NewVerifier creates a verifier trusting the given privacy-CA key,
// accepting the paper-faithful RSA profile.
func NewVerifier(caPub *rsa.PublicKey) *Verifier {
	v := &Verifier{
		caPub:    caPub,
		certSeen: make(map[[32]byte]struct{}),
	}
	v.policy.Store(&verifierPolicy{
		approved: make(map[cryptoutil.Digest]palEntry),
		byName:   make(map[string]cryptoutil.Digest),
		revoked:  make(map[string]bool),
	})
	return v
}

// SetScheme switches the accepted crypto profile. Call at construction
// time, before the verifier sees traffic.
func (v *Verifier) SetScheme(s cryptoutil.Scheme) { v.scheme = s }

// SchemeID returns the accepted profile's identifier.
func (v *Verifier) SchemeID() cryptoutil.SchemeID {
	if v.scheme == nil {
		return cryptoutil.SchemeRSA
	}
	return v.scheme.ID()
}

// SetCertCacheHooks installs callbacks fired on each certificate-cache
// hit and miss (e.g. obs-registry counters). Call at construction time.
func (v *Verifier) SetCertCacheHooks(onHit, onMiss func()) {
	v.onCertHit = onHit
	v.onCertMiss = onMiss
}

// CertCacheStats reports how often certificate signature verification
// was skipped because the exact wire bytes had already verified (hits)
// versus paid in full (misses).
func (v *Verifier) CertCacheStats() (hits, misses uint64) {
	return v.certHits.Load(), v.certMisses.Load()
}

// mutatePolicy applies one copy-on-write policy change.
func (v *Verifier) mutatePolicy(f func(pol *verifierPolicy)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	next := v.policy.Load().clone()
	f(next)
	v.policy.Store(next)
}

// RevokeCert blacklists a platform (e.g. its TPM is known compromised
// or its AIK leaked). Subsequent evidence from it fails with
// ErrCertRevoked regardless of cryptographic validity.
func (v *Verifier) RevokeCert(platformID string) {
	v.mutatePolicy(func(pol *verifierPolicy) { pol.revoked[platformID] = true })
}

// ReinstateCert removes a platform from the revocation list.
func (v *Verifier) ReinstateCert(platformID string) {
	v.mutatePolicy(func(pol *verifierPolicy) { delete(pol.revoked, platformID) })
}

// SetCertValidity enables certificate age checking against the given
// clock: evidence whose AIK certificate is older than maxAge fails with
// ErrCertExpired. A zero maxAge disables the check.
func (v *Verifier) SetCertValidity(clock sim.Clock, maxAge time.Duration) {
	v.mutatePolicy(func(pol *verifierPolicy) {
		pol.clock = clock
		pol.maxCertAge = maxAge
	})
}

// ApprovePAL adds a PAL measurement to the policy (SKINIT convention:
// the PAL is the only measurement in the dynamic chain). The verifier
// demands the *capped* PCR 17 state, i.e. proof that the PAL both ran
// and exited before the quote was taken.
func (v *Verifier) ApprovePAL(name string, measurement cryptoutil.Digest) {
	v.ApprovePALChain(name, measurement)
}

// ApprovePALChain approves a launch whose dynamic PCR carries several
// measurements in order — the Intel TXT convention, where the SINIT ACM
// is measured before the MLE (the PAL). The last measurement is taken
// as the PAL's own identity.
func (v *Verifier) ApprovePALChain(name string, measurements ...cryptoutil.Digest) {
	if len(measurements) == 0 {
		return
	}
	capped := expectedChainCapped(measurements)
	entry := palEntry{name: name, measurement: measurements[len(measurements)-1]}
	v.mutatePolicy(func(pol *verifierPolicy) {
		pol.approved[capped] = entry
		pol.byName[name] = capped
	})
}

// RevokePAL removes a PAL from the policy (e.g. after a vulnerability is
// found in a deployed PAL version).
func (v *Verifier) RevokePAL(name string) {
	v.mutatePolicy(func(pol *verifierPolicy) {
		capped, ok := pol.byName[name]
		if !ok {
			return
		}
		delete(pol.approved, capped)
		delete(pol.byName, name)
	})
}

// PALApproved reports whether the named PAL is currently on the
// approved list. Session re-confirmation uses this to demote sessions
// whose PAL was revoked after the session was attested (the
// PCR-profile-change demotion rule).
func (v *Verifier) PALApproved(name string) bool {
	_, ok := v.policy.Load().byName[name]
	return ok
}

// ApprovedPALs lists the approved PAL names.
func (v *Verifier) ApprovedPALs() []string {
	pol := v.policy.Load()
	names := make([]string, 0, len(pol.byName))
	for n := range pol.byName {
		names = append(names, n)
	}
	return names
}

// certVerified checks the AIK certificate signature, consulting and
// feeding the verified-certificate cache. Cache hits are sound because
// the key covers the full wire form (body and signature): the same
// bytes can only ever verify the same way under the same CA key.
func (v *Verifier) certVerified(c *AIKCert) error {
	key := sha256.Sum256(c.Marshal())
	v.certMu.RLock()
	_, seen := v.certSeen[key]
	v.certMu.RUnlock()
	if seen {
		v.certHits.Add(1)
		if v.onCertHit != nil {
			v.onCertHit()
		}
		return nil
	}
	v.certMisses.Add(1)
	if v.onCertMiss != nil {
		v.onCertMiss()
	}
	if err := VerifyAIKCert(v.caPub, c); err != nil {
		return err
	}
	v.certMu.Lock()
	if len(v.certSeen) >= certCacheLimit {
		v.certSeen = make(map[[32]byte]struct{}, certCacheLimit)
	}
	v.certSeen[key] = struct{}{}
	v.certMu.Unlock()
	return nil
}

// expectedCapped mirrors platform.ExpectedPCR17Capped without importing
// the platform package (the verifier runs provider-side and must not
// depend on client hardware models — only on the public constants of the
// measurement convention).
func expectedCapped(measurement cryptoutil.Digest) cryptoutil.Digest {
	return expectedChainCapped([]cryptoutil.Digest{measurement})
}

// expectedChainCapped computes the capped dynamic-PCR value of a launch
// measuring the given chain in order.
func expectedChainCapped(measurements []cryptoutil.Digest) cryptoutil.Digest {
	var v cryptoutil.Digest
	for _, m := range measurements {
		v = cryptoutil.ExtendDigest(v, m)
	}
	return cryptoutil.ExtendDigest(v, capDigest)
}

// capDigest must equal platform.CapDigest; kept as an independent
// constant of the measurement convention (checked by an integration
// test).
var capDigest = cryptoutil.SHA1([]byte("unitp.platform.session-cap.v1"))

// verifyQuoteSig checks the quote's internal consistency and its
// signature under the certified AIK, once, with the configured scheme.
// The RSA path is byte-for-byte the pre-scheme code path.
func (v *Verifier) verifyQuoteSig(ev *Evidence) error {
	if v.scheme == nil || v.scheme.ID() == cryptoutil.SchemeRSA {
		return tpm.VerifyQuote(ev.Cert.AIKPub, ev.Quote)
	}
	return tpm.VerifyQuoteScheme(v.scheme, ev.Cert.AIKPubRaw, ev.Quote)
}

// Verify checks one piece of evidence end to end:
//
//  1. the AIK certificate chains to the trusted privacy CA;
//  2. the quote signature verifies under the certified AIK and the
//     reported PCR values hash to the signed composite;
//  3. the external data equals the expected challenge nonce;
//  4. quoted PCR 17 equals the capped launch state of an approved PAL;
//  5. quoted PCR 23 equals the expected output binding.
//
// Nonce single-use enforcement is the caller's job (NonceCache), since
// the cache is shared across verifications.
func (v *Verifier) Verify(ev *Evidence, want Expectations) (*Result, error) {
	if ev == nil || ev.Cert == nil || ev.Quote == nil {
		return nil, fmt.Errorf("attest: verify: nil evidence")
	}
	if ev.Cert.Scheme != v.SchemeID() {
		return nil, fmt.Errorf("%w: evidence is %s, verifier wants %s",
			ErrSchemeMismatch, ev.Cert.Scheme, v.SchemeID())
	}
	if err := v.certVerified(ev.Cert); err != nil {
		return nil, err
	}
	pol := v.policy.Load()
	if pol.revoked[ev.Cert.PlatformID] {
		return nil, ErrCertRevoked
	}
	if pol.clock != nil && pol.maxCertAge > 0 && pol.clock.Now().Sub(ev.Cert.IssuedAt) > pol.maxCertAge {
		return nil, ErrCertExpired
	}
	if err := v.verifyQuoteSig(ev); err != nil {
		return nil, err
	}
	if [NonceSize]byte(want.Nonce) != ev.Quote.ExternalData {
		return nil, ErrNonceMismatch
	}
	pcr17, ok := ev.Quote.PCRValue(tpm.PCRDRTM)
	if !ok {
		return nil, fmt.Errorf("%w: PCR17", ErrMissingPCR)
	}
	entry, approved := pol.approved[pcr17]
	if !approved {
		return nil, ErrUnapprovedPAL
	}
	if !want.SkipOutputCheck {
		pcr23, ok := ev.Quote.PCRValue(tpm.PCRApp)
		if !ok {
			return nil, fmt.Errorf("%w: PCR23", ErrMissingPCR)
		}
		if pcr23 != want.ExpectedPCR23 {
			return nil, ErrOutputMismatch
		}
	}
	return &Result{
		PALName:        entry.name,
		PALMeasurement: entry.measurement,
		PlatformID:     ev.Cert.PlatformID,
	}, nil
}
