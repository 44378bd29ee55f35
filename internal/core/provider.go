package core

import (
	"crypto/ecdh"
	"crypto/rsa"
	"crypto/x509"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"unitp/internal/attest"
	"unitp/internal/captcha"
	"unitp/internal/cryptoutil"
	"unitp/internal/metrics"
	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/sim"
	"unitp/internal/store"
)

// Provider-side errors.
var (
	// ErrInsufficientFunds is returned by the ledger for overdrafts.
	ErrInsufficientFunds = errors.New("core: insufficient funds")

	// ErrBalanceOverflow is returned by the ledger for a credit that
	// would take the recipient's balance past the largest it can hold.
	ErrBalanceOverflow = errors.New("core: balance overflow")

	// ErrUnknownAccount is returned for ledger operations on missing
	// accounts.
	ErrUnknownAccount = errors.New("core: unknown account")

	// ErrAccountExists is returned when creating a duplicate account.
	ErrAccountExists = errors.New("core: account already exists")

	// ErrDuplicateTransaction is returned when applying a transaction
	// whose ID already executed — the ledger-level idempotence that
	// keeps client retries (and crash-recovery replays) from debiting
	// twice.
	ErrDuplicateTransaction = errors.New("core: transaction already executed")

	// ErrFenced is returned by a provider that has been fenced: a newer
	// epoch holds its shard, so this instance must not answer requests
	// or commit state — a zombie primary answering after failover is how
	// replicated systems double-spend.
	ErrFenced = errors.New("core: provider fenced by newer epoch")
)

// ProviderStats counts protocol outcomes for the experiment tables.
type ProviderStats struct {
	// Submitted counts transaction submissions received.
	Submitted int
	// AutoAccepted counts transactions below the confirmation
	// threshold, executed without a challenge.
	AutoAccepted int
	// Challenged counts confirmation challenges issued.
	Challenged int
	// Confirmed counts transactions executed after verified human
	// confirmation.
	Confirmed int
	// DeniedByUser counts authenticated human denials.
	DeniedByUser int
	// RejectedForged counts confirmations whose evidence failed
	// verification — the attack detections.
	RejectedForged int
	// RejectedStale counts proofs and answers, CAPTCHA answers
	// included, for an unknown, expired or already consumed challenge.
	RejectedStale int
	// PresenceGranted counts human-presence tokens issued.
	PresenceGranted int
	// PresenceRejected counts failed presence proofs.
	PresenceRejected int
	// Provisioned counts successful HMAC key provisionings.
	Provisioned int
	// LedgerRejected counts verified confirmations the ledger refused
	// (e.g. insufficient funds).
	LedgerRejected int
	// ExpiredChallenges counts challenges garbage-collected without an
	// answer — the footprint of malware DoS (refusing to run the PAL)
	// and of abandoned sessions.
	ExpiredChallenges int
	// ExpiredOutcomes counts answered-challenge cache entries evicted
	// after their TTL. A retransmission past the TTL gets a stale
	// rejection instead of the cached answer, evicted or not.
	ExpiredOutcomes int
	// LoginsGranted counts verified PIN logins.
	LoginsGranted int
	// LoginsRejected counts failed login proofs.
	LoginsRejected int
	// BatchesConfirmed counts verified batch confirmations.
	BatchesConfirmed int
	// CorruptFrames counts undecodable requests — the footprint of
	// in-flight corruption (or garbage from broken clients).
	CorruptFrames int
	// DowngradesRequested counts clients that fell back from the
	// trusted path to the CAPTCHA gate.
	DowngradesRequested int
	// FallbackPassed counts transactions executed on the degraded,
	// CAPTCHA-gated path.
	FallbackPassed int
	// FallbackFailed counts wrong CAPTCHA transcriptions on the
	// degraded path; an answer for an unknown or expired CAPTCHA counts
	// as RejectedStale.
	FallbackFailed int
	// SessionsOpened counts attested sessions established (one full
	// quote verification each).
	SessionsOpened int
	// SessionsConfirmed counts transactions confirmed inside attested
	// sessions (HMAC + counter, no per-transaction quote). Each also
	// increments Confirmed.
	SessionsConfirmed int
	// SessionDemotions counts sessions killed by a demotion rule (MAC
	// failure, replayed counter, expiry, budget, PAL revocation) — each
	// forced the client back to a full re-quote.
	SessionDemotions int
	// ExpiredSessions counts attested sessions garbage-collected after
	// their lifetime, distinct from ExpiredChallenges: the pools age
	// under different policies.
	ExpiredSessions int
	// SweptByShard counts expiry-sweep evictions (expired challenges
	// plus evicted cached outcomes) per session-state stripe. Filled by
	// Stats() from the live shards; not persisted in snapshots.
	SweptByShard [numShards]int
}

// pendingKind distinguishes outstanding challenges.
type pendingKind int

const (
	pendingConfirm pendingKind = iota + 1
	pendingPresence
	pendingProvision
	pendingLogin
	pendingBatch
	// pendingSession is a session-open challenge; its pendingChallenge
	// reuses the username field for the account, so the journal wire
	// format is unchanged.
	pendingSession
	// pendingFallback is a CAPTCHA on the degraded path, bound to its
	// order like a confirmation challenge; its pendingChallenge reuses
	// the username field for the transcription.
	pendingFallback
)

// pendingChallenge is one outstanding nonce's context.
type pendingChallenge struct {
	kind     pendingKind
	tx       *Transaction
	batch    []Transaction
	username string
	issuedAt time.Time
}

// ProviderConfig configures a service provider.
type ProviderConfig struct {
	// Name labels the provider in logs.
	Name string

	// CAPub is the trusted privacy-CA verification key.
	CAPub *rsa.PublicKey

	// Key is the provider's RSA key pair (key transport for
	// provisioning). nil disables ModeHMAC provisioning.
	Key *rsa.PrivateKey

	// Clock and Random drive nonce freshness and token generation.
	Clock  sim.Clock
	Random *sim.Rand

	// NonceTTL bounds how long a challenge stays redeemable
	// (default 5 min).
	NonceTTL time.Duration

	// ConfirmThresholdCents is the amount at or above which a
	// transaction demands human confirmation. Zero means every
	// transaction does.
	ConfirmThresholdCents int64

	// SnapshotEvery rotates the durability snapshot after this many WAL
	// group commits (0 = only on AttachStore/SnapshotNow). Irrelevant
	// until a store is attached.
	SnapshotEvery int

	// Epoch is the fencing generation this provider instance serves
	// under. A fleet bumps the epoch at every failover; a provider built
	// for epoch e is outranked (and fenced) by any instance at e+1.
	// Zero is a valid epoch for standalone providers.
	Epoch uint64

	// Scheme selects the quote-signature crypto profile the verifier
	// checks every quote signature with, once, inline (nil = the
	// paper-faithful RSA/SHA-1 profile, byte-identical to the
	// pre-scheme code path).
	Scheme cryptoutil.Scheme

	// SessionMaxTx caps how many transactions one attested session may
	// confirm before a full re-quote is forced (0 = default 64).
	SessionMaxTx uint32

	// SessionMaxAge caps an attested session's lifetime before a full
	// re-quote is forced (0 = default 10 min).
	SessionMaxAge time.Duration

	// Metrics, when non-nil, receives live outcome, replay-cache, and
	// in-flight instrumentation.
	Metrics *obs.Registry

	// Tracer, when non-nil, lets the provider attribute its handling
	// phases to client-minted correlation IDs (adopting remote IDs it
	// has never seen).
	Tracer *obs.Tracer
}

// Provider is the service-provider engine: it owns the ledger, issues
// challenges, and verifies confirmations. Its Handle method implements
// netsim.Handler, so the same engine serves simulated and real
// transports.
//
// Requests flow through a three-stage pipeline. Stage 1 (verify,
// preverify.go) decodes the frame and runs all pure-CPU crypto outside
// every provider lock, concurrently across requests. Stage 2 (state
// transition) takes the pending challenge, applies the ledger and audit
// mutations, and journals them — under stateMu when a store is
// attached, under per-nonce shard locks otherwise. Stage 3 (group
// commit, durable.go) batches all in-flight journals into one WAL write
// set with a single sync and releases every waiter when durable.
type Provider struct {
	mu        sync.Mutex
	name      string
	verifier  *attest.Verifier
	nonces    *sim.Rand // challenge nonces; shards is their only record
	captchas  *sim.Rand // CAPTCHA transcriptions
	clock     sim.Clock
	rng       *sim.Rand
	key       *rsa.PrivateKey
	ledger    *Ledger
	audit     *AuditLog
	shards    [numShards]sessionShard // pending + answered, striped by nonce
	hmacKeys  map[string][]byte
	presence  map[string]bool     // issued presence tokens
	creds     map[string][32]byte // username -> credential digest
	platforms map[string]string   // account -> bound platform ID
	obsReg    *obs.Registry
	tracer    *obs.Tracer
	ins       providerInstruments
	stats     ProviderStats
	thresh    int64
	ttl       time.Duration
	gcTick    atomic.Int64
	gcLast    atomic.Int64 // clock time (UnixNano) the last opportunistic sweep started

	// Attested sessions (see session.go). sessMu guards the table; the
	// table is deliberately NOT journaled, so restarts and failovers
	// force a full re-quote. sessPALName is the provider's pinned
	// session-open PAL name and kexKey its X25519 key-agreement key
	// (both empty/nil when p.key is nil); kexKey is immutable after
	// construction and safe to read from the parallel verify stage.
	sessMu      sync.Mutex
	sessions    map[uint64]*attSession
	sessMaxTx   uint32
	sessMaxAge  time.Duration
	sessPALName string
	kexKey      *ecdh.PrivateKey

	// Durability (see durable.go). stateMu serializes the state
	// transition while a store is attached, so WAL order equals mutation
	// order; commit is the group committer batching journals across
	// requests; dead marks a store failure (the provider stops answering
	// until restored into a fresh instance).
	stateMu   sync.Mutex
	commit    committer
	st        *store.Store
	snapEvery int
	dead      atomic.Bool
	// snapTail is the length of the last snapshot's last part, the
	// sections after the audit log, which sizes the next one's buffer.
	snapTail atomic.Int64

	// Fleet integration (see internal/fleet). epoch is the fencing
	// generation this instance serves under; fenced is raised when a
	// newer epoch takes the shard, after which every request is refused
	// with ErrFenced. commitHook, when set, runs inside commitBatch
	// after a successful sync — it is how a replicator ships committed
	// WAL groups to followers before any response is released; a hook
	// error kills the provider exactly like a store failure.
	epoch      uint64
	fenced     atomic.Bool
	commitHook func(groups [][]byte) error
}

// providerInstruments holds the provider's registry instruments,
// resolved once at construction/SetObservability instead of by name on
// every request (the per-request map+lock lookups were a measurable
// hot-path cost). All instruments are nil-registry-safe discards when
// no registry is attached.
type providerInstruments struct {
	inflight            *metrics.Gauge
	corruptFrames       *metrics.Counter
	replayHits          *metrics.Counter
	replayStores        *metrics.Counter
	submitted           *metrics.Counter
	challenged          *metrics.Counter
	outcomeConfirmed    *metrics.Counter
	outcomeAccepted     *metrics.Counter
	outcomeDenied       *metrics.Counter
	outcomeRetryable    *metrics.Counter
	outcomeRejected     *metrics.Counter
	gcExpiredChallenges *metrics.Counter
	gcExpiredOutcomes   *metrics.Counter
	gcExpiredSessions   *metrics.Counter
	sessionsOpened      *metrics.Counter
	sessionsConfirmed   *metrics.Counter
	sessionsDemoted     *metrics.Counter
	certCacheHits       *metrics.Counter
	certCacheMisses     *metrics.Counter
	commits             *metrics.Counter
	recoveries          *metrics.Counter
	commitLatency       *metrics.BoundedHistogram
	// commitBatchSize records one sample per group commit whose value
	// encodes the batch size as time.Duration(n) microseconds — the
	// registry's histogram is duration-valued, and the F12 experiment
	// reads the exact integer distribution from CommitBatchSizes.
	commitBatchSize *metrics.BoundedHistogram
}

// resolveInstruments (re)binds every instrument against the current
// registry.
func (p *Provider) resolveInstruments() {
	m := p.obsReg
	p.ins = providerInstruments{
		inflight:            m.Gauge("provider.inflight"),
		corruptFrames:       m.Counter("provider.corrupt_frames"),
		replayHits:          m.Counter("provider.replay_cache.hits"),
		replayStores:        m.Counter("provider.replay_cache.stores"),
		submitted:           m.Counter("provider.submitted"),
		challenged:          m.Counter("provider.challenged"),
		outcomeConfirmed:    m.Counter("provider.outcome.confirmed"),
		outcomeAccepted:     m.Counter("provider.outcome.accepted"),
		outcomeDenied:       m.Counter("provider.outcome.denied"),
		outcomeRetryable:    m.Counter("provider.outcome.rejected_retryable"),
		outcomeRejected:     m.Counter("provider.outcome.rejected"),
		gcExpiredChallenges: m.Counter("provider.gc.expired_challenges"),
		gcExpiredOutcomes:   m.Counter("provider.gc.expired_outcomes"),
		gcExpiredSessions:   m.Counter("provider.gc.expired_sessions"),
		sessionsOpened:      m.Counter("provider.sessions.opened"),
		sessionsConfirmed:   m.Counter("provider.sessions.confirmed"),
		sessionsDemoted:     m.Counter("provider.sessions.demoted"),
		certCacheHits:       m.Counter("attest.cert_cache_hits"),
		certCacheMisses:     m.Counter("attest.cert_cache_misses"),
		commits:             m.Counter("provider.commits"),
		recoveries:          m.Counter("provider.recoveries"),
		commitLatency:       m.Histogram("provider.commit_latency"),
		commitBatchSize:     m.Histogram("provider.commit_batch_size"),
	}
}

// answeredChallenge caches the outcome of a consumed challenge so that
// a retransmitted proof (lost response, transport retry) receives the
// same answer instead of a spurious rejection — proof handling is
// idempotent, and the underlying transaction never executes twice.
type answeredChallenge struct {
	outcome Outcome
	at      time.Time
}

// NewProvider builds a provider engine.
func NewProvider(cfg ProviderConfig) *Provider {
	clock := cfg.Clock
	if clock == nil {
		clock = sim.NewVirtualClock()
	}
	rng := cfg.Random
	if rng == nil {
		rng = sim.NewRand(0x5E)
	}
	ttl := cfg.NonceTTL
	if ttl == 0 {
		ttl = 5 * time.Minute
	}
	p := &Provider{
		name:      cfg.Name,
		verifier:  attest.NewVerifier(cfg.CAPub),
		nonces:    rng.Fork("nonces"),
		captchas:  rng.Fork("captcha"),
		clock:     clock,
		rng:       rng,
		key:       cfg.Key,
		ledger:    NewLedger(),
		audit:     NewAuditLog(),
		hmacKeys:  make(map[string][]byte),
		presence:  make(map[string]bool),
		creds:     make(map[string][32]byte),
		platforms: make(map[string]string),
		obsReg:    cfg.Metrics,
		tracer:    cfg.Tracer,
		thresh:    cfg.ConfirmThresholdCents,
		ttl:       ttl,
		snapEvery: cfg.SnapshotEvery,
		epoch:     cfg.Epoch,
	}
	for i := range p.shards {
		p.shards[i].pending = make(map[attest.Nonce]pendingChallenge)
		p.shards[i].answered = make(map[attest.Nonce]answeredChallenge)
	}
	p.sessions = make(map[uint64]*attSession)
	p.sessMaxTx = cfg.SessionMaxTx
	if p.sessMaxTx == 0 {
		p.sessMaxTx = defaultSessionMaxTx
	}
	p.sessMaxAge = cfg.SessionMaxAge
	if p.sessMaxAge == 0 {
		p.sessMaxAge = defaultSessionMaxAge
	}
	if p.key != nil {
		p.sessPALName = SessionOpenPALNameFor(p.PublicKeyDER())
		p.kexKey = sessionKexKey(p.key)
	}
	if cfg.Scheme != nil {
		p.verifier.SetScheme(cfg.Scheme)
	}
	p.commit.init()
	p.resolveInstruments()
	// Mirror the verifier's certificate-cache effectiveness into the
	// registry (instruments are re-resolved on SetObservability; the
	// hooks read p.ins at fire time, so they follow rebinds).
	p.verifier.SetCertCacheHooks(
		func() { p.ins.certCacheHits.Inc() },
		func() { p.ins.certCacheMisses.Inc() },
	)
	return p
}

// GC removes challenges that outlived the nonce TTL without an answer —
// the provider-side bound on state held for clients whose malware DoSed
// the confirmation (or who walked away). Each stripe is swept under its
// own lock, so a GC pass never blocks the whole map. Returns the number
// collected.
func (p *Provider) GC() int {
	now := p.clock.Now()
	n, evicted := 0, 0
	for i := range p.shards {
		e, v := p.sweepShard(&p.shards[i], now)
		n += e
		evicted += v
	}
	sessions := p.sweepSessions(now)
	p.count(func(s *ProviderStats) {
		s.ExpiredChallenges += n
		s.ExpiredOutcomes += evicted
		s.ExpiredSessions += sessions
	})
	p.ins.gcExpiredChallenges.Add(int64(n))
	p.ins.gcExpiredOutcomes.Add(int64(evicted))
	p.ins.gcExpiredSessions.Add(int64(sessions))
	return n
}

// SetObservability attaches (or replaces) the provider's live metrics
// registry and tracer. Either may be nil; instrumented paths are
// nil-safe. Call before serving traffic — instrument rebinding is not
// synchronized with in-flight requests.
func (p *Provider) SetObservability(m *obs.Registry, tr *obs.Tracer) {
	p.obsReg = m
	p.tracer = tr
	p.resolveInstruments()
}

// PendingChallenges reports the number of outstanding challenges.
func (p *Provider) PendingChallenges() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += len(sh.pending)
		sh.mu.Unlock()
	}
	return n
}

// maybeGC runs GC opportunistically every 64 challenge issuances, so
// long-running providers stay bounded without an external timer. A
// sweep also waits until ttl/8 has passed since the previous one
// started: an entry is then held at most TTL + ttl/8, and each sweep
// visits about the state issued over 9/8 of a TTL, spread over the
// issuances of ttl/8 — about nine visits per issuance at any rate or
// TTL, where the count alone would make each pay live/64.
func (p *Provider) maybeGC() {
	if p.gcTick.Add(1)%64 != 0 {
		return
	}
	now := p.clock.Now().UnixNano()
	last := p.gcLast.Load()
	// A clock stepped back past the last sweep opens the gate rather
	// than holding it shut until the clock catches up.
	if elapsed := now - last; elapsed >= 0 && elapsed < int64(p.ttl/8) {
		return
	}
	if p.gcLast.CompareAndSwap(last, now) {
		p.GC()
	}
}

// issueChallenge draws a fresh nonce and records the pending context
// under it: the pending entry is the challenge's only record.
func (p *Provider) issueChallenge(pend pendingChallenge, j *journal) attest.Nonce {
	p.maybeGC()
	var nonce attest.Nonce
	_, _ = p.nonces.Read(nonce[:])
	pend.issuedAt = p.clock.Now()
	sh := p.shardFor(nonce)
	sh.mu.Lock()
	sh.pending[nonce] = pend
	sh.mu.Unlock()
	j.challengeIssued(nonce, pend)
	return nonce
}

// takePending consumes a pending challenge of the expected kind, which
// redeems its nonce: a nonce has a pending entry at most once. It returns (pending, nil, "") on success, a cached
// outcome for an already-answered nonce (idempotent retransmissions),
// or a rejection reason. The consume-or-replay decision is atomic under
// the nonce's stripe lock.
func (p *Provider) takePending(nonce attest.Nonce, kind pendingKind, j *journal) (pendingChallenge, *Outcome, string) {
	sh := p.shardFor(nonce)
	sh.mu.Lock()
	pend, ok := sh.pending[nonce]
	if ok {
		delete(sh.pending, nonce)
	}
	cached, wasAnswered := sh.answered[nonce]
	sh.mu.Unlock()
	if !ok || pend.kind != kind {
		if ok {
			// A wrong-kind proof still consumed the pending entry.
			j.pendingDropped(nonce)
		}
		// A cached outcome past the TTL is as good as swept: the
		// answer must not depend on whether a sweep has run yet.
		if wasAnswered && p.clock.Now().Sub(cached.at) <= p.ttl {
			p.ins.replayHits.Inc()
			replay := cached.outcome
			return pendingChallenge{}, &replay, ""
		}
		p.count(func(s *ProviderStats) { s.RejectedStale++ })
		return pendingChallenge{}, nil, "unknown or expired challenge"
	}
	// Explicit TTL expiry: a proof that arrives after the challenge's
	// lifetime is rejected even if the opportunistic GC has not run yet,
	// so the expiry bound is enforced at redemption time, not just at
	// collection time.
	if p.clock.Now().Sub(pend.issuedAt) > p.ttl {
		j.pendingDropped(nonce)
		p.count(func(s *ProviderStats) {
			s.RejectedStale++
			s.ExpiredChallenges++
		})
		return pendingChallenge{}, nil, "challenge expired"
	}
	j.nonceRedeemed(nonce)
	return pend, nil, ""
}

// rememberOutcome stores a proof handler's answer for idempotent
// replays, and returns the outcome for convenience.
func (p *Provider) rememberOutcome(nonce attest.Nonce, outcome *Outcome, j *journal) *Outcome {
	now := p.clock.Now()
	sh := p.shardFor(nonce)
	sh.mu.Lock()
	sh.answered[nonce] = answeredChallenge{outcome: *outcome, at: now}
	sh.mu.Unlock()
	j.outcomeCached(nonce, now, outcome)
	p.ins.replayStores.Inc()
	return outcome
}

// auditAppend records an audit entry and journals the appended form
// (with its chain fields) for durability.
func (p *Provider) auditAppend(e AuditEntry, j *journal) {
	p.audit.append(&e, j.auditAppended)
}

// applyTx executes a transfer and journals it. The caller handles
// ErrDuplicateTransaction (idempotent success) and real failures.
func (p *Provider) applyTx(tx *Transaction, j *journal) error {
	return p.ledger.apply(tx, j.ledgerApplied)
}

// Ledger exposes the provider's account store (examples, tests).
func (p *Provider) Ledger() *Ledger { return p.ledger }

// Verifier exposes the attestation policy (to approve PALs).
func (p *Provider) Verifier() *attest.Verifier { return p.verifier }

// AuditLog exposes the provider's hash-chained confirmation record
// (non-repudiation; see ReplayAudit).
func (p *Provider) AuditLog() *AuditLog { return p.audit }

// Stats returns a copy of the outcome counters, including per-shard
// sweep totals gathered from the live stripes.
func (p *Provider) Stats() ProviderStats {
	p.mu.Lock()
	s := p.stats
	p.mu.Unlock()
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		s.SweptByShard[i] = sh.sweptChallenges + sh.sweptOutcomes
		sh.mu.Unlock()
	}
	return s
}

// PublicKeyDER returns the provider's public key in PKCS#1 DER form, or
// nil when provisioning is disabled.
func (p *Provider) PublicKeyDER() []byte {
	if p.key == nil {
		return nil
	}
	return x509.MarshalPKCS1PublicKey(&p.key.PublicKey)
}

// ValidPresenceToken reports whether a token was genuinely issued
// (single check; tokens stay valid for the simulation's lifetime).
func (p *Provider) ValidPresenceToken(token string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.presence[token]
}

// Epoch returns the fencing generation this instance serves under.
func (p *Provider) Epoch() uint64 { return p.epoch }

// Fence demotes this instance: a newer epoch owns the shard now, so
// every subsequent request is refused with ErrFenced. Fencing is
// one-way — a fenced provider is never un-fenced; failback builds a
// fresh instance at a newer epoch.
func (p *Provider) Fence() { p.fenced.Store(true) }

// Fenced reports whether Fence has been called.
func (p *Provider) Fenced() bool { return p.fenced.Load() }

// Kill simulates abrupt process death for fault injection: the instance
// stops answering exactly as after a fatal store failure. State already
// synced to its WAL remains on the backend; everything else is gone.
func (p *Provider) Kill() { p.markDead() }

// Dead reports whether a store failure (or Kill) has stopped this
// instance from answering.
func (p *Provider) Dead() bool { return p.isDead() }

// SetCommitHook installs a hook that runs inside every group commit
// after the WAL sync and before any waiter is released — the
// replication shipping point. A hook error kills the provider: a batch
// that could not be replicated must not be answered. Install before
// serving traffic; the hook runs without provider locks held.
func (p *Provider) SetCommitHook(h func(groups [][]byte) error) { p.commitHook = h }

var _ netsim.Handler = (*Provider)(nil).Handle

// Handle implements the provider's wire protocol: it decodes one request
// message and returns the encoded response. Protocol-level rejections
// are expressed as Outcome messages, not Go errors; a Go error means the
// request was undecodable — or, on a durable provider, that the store
// failed mid-request (store.ErrCrashed: the response was never durable,
// so none is returned).
func (p *Provider) Handle(req []byte) ([]byte, error) {
	// A correlation-ID envelope, when present, attributes this request's
	// handling to the client's session trace. Frames from legacy or
	// hostile clients arrive bare and are processed identically.
	sid, inner, hasSID := obs.UnwrapFrame(req)
	var tr *obs.SessionTrace
	if hasSID {
		tr = p.tracer.Adopt(sid, p.clock)
	}
	p.ins.inflight.Inc()
	defer p.ins.inflight.Dec()
	sp := tr.StartSpan("provider.handle")
	defer sp.End()

	msg, err := DecodeMessage(inner)
	if err != nil {
		// An undecodable frame is either in-flight corruption or a
		// broken client; count it so chaos experiments can report the
		// rejection rate, then let the transport layer decide whether
		// the sender retries.
		p.count(func(s *ProviderStats) { s.CorruptFrames++ })
		p.ins.corruptFrames.Inc()
		tr.Event("provider.corrupt_frame", err.Error())
		return nil, err
	}

	if p.fenced.Load() {
		// A fenced instance must not answer: the shard belongs to a
		// newer epoch, and an answer from here could diverge from it.
		tr.Event("provider.fenced", "request refused: newer epoch owns this shard")
		return nil, ErrFenced
	}

	if p.st == nil {
		// No durability: the state transition runs fully concurrently,
		// consistency coming from the shard locks and the single-writer
		// ledger and audit chain.
		return p.dispatch(msg, p.preVerify(msg, tr), nil, tr)
	}
	// Pipelined durable path. Stage 1: all crypto, outside every lock.
	// The arriving count tells a commit leader this request is on its
	// way to the queue, so the leader holds the sync open for it.
	p.commit.arriving.Add(1)
	pre := p.preVerify(msg, tr)
	// Stage 2: the state transition, under stateMu so WAL order equals
	// mutation order. The journal is enqueued while the lock is still
	// held — queue order therefore also equals mutation order.
	p.stateMu.Lock()
	if p.isDead() {
		p.commit.arriving.Add(-1)
		p.stateMu.Unlock()
		return nil, store.ErrCrashed
	}
	j := &journal{}
	resp, err := p.dispatch(msg, pre, j, tr)
	if err != nil || j.n == 0 {
		p.commit.arriving.Add(-1)
		p.stateMu.Unlock()
		return resp, err
	}
	creq := p.enqueueGroup(j)
	p.commit.arriving.Add(-1)
	p.stateMu.Unlock()
	// Stage 3: group commit. A crash can tear at most whole groups off
	// the WAL tail — the response leaves only after its group is synced,
	// so a torn request is one the client never saw answered.
	wsp := tr.StartSpan("provider.wal_commit")
	cerr := p.awaitCommit(creq)
	wsp.End()
	if cerr != nil {
		return nil, cerr
	}
	return resp, nil
}

// dispatch routes one decoded request, journaling mutations into j (nil
// when the provider has no store), consuming the verify stage's result
// (nil means every check runs inline), and attributing phases to tr.
func (p *Provider) dispatch(msg any, pre *preVerified, j *journal, tr *obs.SessionTrace) ([]byte, error) {
	var resp any
	switch m := msg.(type) {
	case *SubmitTx:
		resp = p.handleSubmit(m, j, tr)
	case *ConfirmTx:
		resp = p.handleConfirm(m, pre.confirmPart(), j, tr)
	case *PresenceRequest:
		resp = p.handlePresenceRequest(j)
	case *PresenceProof:
		resp = p.handlePresenceProof(m, pre.presencePart(), j)
	case *ProvisionRequest:
		resp = p.handleProvisionRequest(m, j)
	case *ProvisionComplete:
		resp = p.handleProvisionComplete(m, pre.provisionPart(), j)
	case *LoginRequest:
		resp = p.handleLoginRequest(m, j)
	case *LoginProof:
		resp = p.handleLoginProof(m, pre.loginPart(), j)
	case *SubmitBatch:
		resp = p.handleSubmitBatch(m, j)
	case *ConfirmBatch:
		resp = p.handleConfirmBatch(m, pre.batchPart(), j)
	case *FallbackRequest:
		resp = p.handleFallbackRequest(m, j)
	case *FallbackAnswer:
		resp = p.handleFallbackAnswer(m, j)
	case *SessionOpen:
		resp = p.handleSessionOpen(m, j)
	case *SessionProve:
		resp = p.handleSessionProve(m, pre.sessionPart(), j, tr)
	case *ConfirmTxSession:
		resp = p.handleConfirmSession(m, j, tr)
	default:
		return nil, fmt.Errorf("%w: unexpected %T", ErrBadMessage, msg)
	}
	p.observeResponse(resp, tr)
	return EncodeMessage(resp)
}

// observeResponse publishes the outcome taxonomy and, for sessions whose
// correlation ID was minted remotely (adopted), completes the trace on a
// terminal answer — the client process is not here to finish it.
func (p *Provider) observeResponse(resp any, tr *obs.SessionTrace) {
	o, ok := resp.(*Outcome)
	if !ok {
		return
	}
	switch {
	case o.Accepted && o.Authentic:
		p.ins.outcomeConfirmed.Inc()
	case o.Accepted:
		p.ins.outcomeAccepted.Inc()
	case o.Authentic:
		p.ins.outcomeDenied.Inc()
	case o.Retryable:
		p.ins.outcomeRetryable.Inc()
	default:
		p.ins.outcomeRejected.Inc()
	}
	if tr != nil {
		tr.Event("provider.outcome", fmt.Sprintf("accepted=%v reason=%q", o.Accepted, o.Reason))
	}
	if tr.Adopted() {
		tr.Finish()
	}
}

// handleSubmit processes a transaction submission: auto-accept below the
// threshold, otherwise issue a confirmation challenge echoing the
// provider's copy of the transaction.
func (p *Provider) handleSubmit(m *SubmitTx, j *journal, tr *obs.SessionTrace) any {
	p.mu.Lock()
	p.stats.Submitted++
	p.mu.Unlock()
	p.ins.submitted.Inc()
	if err := m.Tx.Validate(); err != nil {
		return &Outcome{Accepted: false, Reason: err.Error(), TxID: safeTxID(m.Tx)}
	}
	if p.thresh > 0 && m.Tx.AmountCents < p.thresh {
		lsp := tr.StartSpan("provider.ledger")
		err := p.applyTx(m.Tx, j)
		lsp.End()
		if err != nil {
			if errors.Is(err, ErrDuplicateTransaction) {
				// A resubmission of an executed order (lost response,
				// new session after a provider restart): idempotent
				// success, no second debit.
				return &Outcome{Accepted: true, Reason: "already executed", TxID: m.Tx.ID}
			}
			p.count(func(s *ProviderStats) { s.LedgerRejected++ })
			return &Outcome{Accepted: false, Reason: err.Error(), TxID: m.Tx.ID}
		}
		p.count(func(s *ProviderStats) { s.AutoAccepted++ })
		return &Outcome{Accepted: true, Reason: "below confirmation threshold", TxID: m.Tx.ID}
	}
	txCopy := *m.Tx
	nonce := p.issueChallenge(pendingChallenge{kind: pendingConfirm, tx: &txCopy}, j)
	p.count(func(s *ProviderStats) { s.Challenged++ })
	p.ins.challenged.Inc()
	tr.Event("provider.challenge", "confirmation challenge issued")
	return &Challenge{Nonce: nonce, Tx: &txCopy}
}

// handleConfirm verifies a confirmation against the pending challenge.
func (p *Provider) handleConfirm(m *ConfirmTx, pre *preConfirm, j *journal, tr *obs.SessionTrace) any {
	pend, cached, rejection := p.takePending(m.Nonce, pendingConfirm, j)
	if cached != nil {
		tr.Event("provider.replay", "cached outcome returned")
		return cached
	}
	if rejection != "" {
		return &Outcome{Accepted: false, Reason: rejection, Retryable: true}
	}
	return p.rememberOutcome(m.Nonce, p.confirmOutcome(m, pend, pre, j, tr), j)
}

// confirmOutcome computes the outcome of a live (non-replayed)
// confirmation, consuming the verify stage's pre-computed checks when
// available and re-running them inline otherwise.
func (p *Provider) confirmOutcome(m *ConfirmTx, pend pendingChallenge, pre *preConfirm, j *journal, tr *obs.SessionTrace) *Outcome {
	txDigest := pend.tx.Digest()
	if pre == nil {
		pre = p.preConfirmTx(m, pend, tr) // nil for an unknown mode
	}
	// Evidence that fails an integrity check is rejected as retryable: a
	// bit flip in transit is indistinguishable from a forgery here, and
	// letting the client run a fresh session is harmless — acceptance
	// still requires valid evidence against a fresh nonce. Binding
	// violations and authenticated user decisions stay final.
	switch m.Mode {
	case ModeQuote:
		if pre.evErr != nil {
			p.count(func(s *ProviderStats) { s.RejectedForged++ })
			return &Outcome{Accepted: false, Reason: "malformed evidence", TxID: pend.tx.ID, Retryable: true}
		}
		if pre.verifyErr != nil {
			p.count(func(s *ProviderStats) { s.RejectedForged++ })
			return &Outcome{Accepted: false, Reason: "attestation failed: " + pre.verifyErr.Error(), TxID: pend.tx.ID, Retryable: true}
		}
		// Cuckoo/relay defence: the attesting platform must be the one
		// bound to the debited account.
		if reason := p.checkPlatformBinding(pend.tx.From, pre.res.PlatformID); reason != "" {
			return &Outcome{Accepted: false, Reason: reason, TxID: pend.tx.ID}
		}
	case ModeHMAC:
		if !pre.keyKnown {
			p.count(func(s *ProviderStats) { s.RejectedForged++ })
			return &Outcome{Accepted: false, Reason: "platform has no provisioned key", TxID: pend.tx.ID, Retryable: true}
		}
		if !pre.macOK {
			p.count(func(s *ProviderStats) { s.RejectedForged++ })
			return &Outcome{Accepted: false, Reason: "confirmation MAC invalid", TxID: pend.tx.ID, Retryable: true}
		}
		if reason := p.checkPlatformBinding(pend.tx.From, m.PlatformID); reason != "" {
			return &Outcome{Accepted: false, Reason: reason, TxID: pend.tx.ID}
		}
	default:
		p.count(func(s *ProviderStats) { s.RejectedForged++ })
		return &Outcome{Accepted: false, Reason: "unknown confirmation mode", TxID: pend.tx.ID, Retryable: true}
	}

	// The decision is authenticated: record it (approvals AND denials —
	// an authenticated denial is dispute evidence too).
	asp := tr.StartSpan("provider.audit")
	p.auditAppend(AuditEntry{
		At:        p.clock.Now(),
		TxID:      pend.tx.ID,
		TxDigest:  txDigest,
		Confirmed: m.Confirmed,
		Nonce:     m.Nonce,
		Evidence:  m.Evidence, // empty in HMAC mode
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
			// The same order was already executed (an earlier session's
			// confirmation whose response was lost): the human approved
			// it, the money moved once — idempotent success.
			return &Outcome{Accepted: true, Authentic: true, Reason: "confirmed by user (already executed)", TxID: pend.tx.ID}
		}
		p.count(func(s *ProviderStats) { s.LedgerRejected++ })
		return &Outcome{Accepted: false, Authentic: true, Reason: err.Error(), TxID: pend.tx.ID}
	}
	p.count(func(s *ProviderStats) { s.Confirmed++ })
	return &Outcome{Accepted: true, Authentic: true, Reason: "confirmed by user", TxID: pend.tx.ID}
}

// handlePresenceRequest issues a presence challenge.
func (p *Provider) handlePresenceRequest(j *journal) any {
	nonce := p.issueChallenge(pendingChallenge{kind: pendingPresence}, j)
	return &PresenceChallenge{Nonce: nonce, Prompt: "press any key to continue"}
}

// handlePresenceProof verifies a presence proof and grants a token.
func (p *Provider) handlePresenceProof(m *PresenceProof, pre *prePresence, j *journal) any {
	_, cached, rejection := p.takePending(m.Nonce, pendingPresence, j)
	if cached != nil {
		return cached
	}
	if rejection != "" {
		return &Outcome{Accepted: false, Reason: rejection, Retryable: true}
	}
	return p.rememberOutcome(m.Nonce, p.presenceOutcome(m, pre, j), j)
}

// presenceOutcome computes the outcome of a live presence proof.
func (p *Provider) presenceOutcome(m *PresenceProof, pre *prePresence, j *journal) *Outcome {
	if pre == nil {
		pre = p.prePresenceProof(m)
	}
	if pre.evErr != nil {
		p.count(func(s *ProviderStats) { s.PresenceRejected++ })
		return &Outcome{Accepted: false, Reason: "malformed evidence", Retryable: true}
	}
	if pre.verifyErr != nil {
		p.count(func(s *ProviderStats) { s.PresenceRejected++ })
		return &Outcome{Accepted: false, Reason: "attestation failed: " + pre.verifyErr.Error(), Retryable: true}
	}
	token := fmt.Sprintf("presence-%016x", p.rng.Uint64())
	p.mu.Lock()
	p.presence[token] = true
	p.stats.PresenceGranted++
	p.mu.Unlock()
	j.presenceTokenGranted(token)
	return &Outcome{Accepted: true, Authentic: true, Reason: "human presence verified", Token: token}
}

// handleProvisionRequest starts key provisioning.
func (p *Provider) handleProvisionRequest(m *ProvisionRequest, j *journal) any {
	if p.key == nil {
		return &Outcome{Accepted: false, Reason: "provider does not support provisioning"}
	}
	if m.PlatformID == "" {
		return &Outcome{Accepted: false, Reason: "missing platform ID"}
	}
	nonce := p.issueChallenge(pendingChallenge{kind: pendingProvision}, j)
	return &ProvisionChallenge{Nonce: nonce, ProviderPubDER: p.PublicKeyDER()}
}

// handleProvisionComplete verifies the provisioning attestation and
// installs the key.
func (p *Provider) handleProvisionComplete(m *ProvisionComplete, pre *preProvision, j *journal) any {
	_, cached, rejection := p.takePending(m.Nonce, pendingProvision, j)
	if cached != nil {
		return cached
	}
	if rejection != "" {
		return &Outcome{Accepted: false, Reason: rejection, Retryable: true}
	}
	return p.rememberOutcome(m.Nonce, p.provisionOutcome(m, pre, j), j)
}

// provisionOutcome computes the outcome of a live provisioning proof.
func (p *Provider) provisionOutcome(m *ProvisionComplete, pre *preProvision, j *journal) *Outcome {
	if pre == nil {
		pre = p.preProvisionComplete(m)
	}
	if pre.evErr != nil {
		p.count(func(s *ProviderStats) { s.RejectedForged++ })
		return &Outcome{Accepted: false, Reason: "malformed evidence", Retryable: true}
	}
	if pre.verifyErr != nil {
		p.count(func(s *ProviderStats) { s.RejectedForged++ })
		return &Outcome{Accepted: false, Reason: "attestation failed: " + pre.verifyErr.Error(), Retryable: true}
	}
	if pre.res.PlatformID != m.PlatformID {
		p.count(func(s *ProviderStats) { s.RejectedForged++ })
		return &Outcome{Accepted: false, Reason: "platform ID does not match certificate"}
	}
	if pre.decErr != nil {
		p.count(func(s *ProviderStats) { s.RejectedForged++ })
		return &Outcome{Accepted: false, Reason: "key transport failed", Retryable: true}
	}
	p.mu.Lock()
	p.hmacKeys[m.PlatformID] = pre.key
	p.stats.Provisioned++
	p.mu.Unlock()
	j.hmacKeyInstalled(m.PlatformID, pre.key)
	return &Outcome{Accepted: true, Authentic: true, Reason: "key provisioned"}
}

// handleFallbackRequest starts the degraded path: a client whose trusted
// path keeps failing asks for the legacy CAPTCHA gate for one order. The
// downgrade itself is recorded in the tamper-evident audit log — a
// dispute over a CAPTCHA-gated transfer must be able to show when and
// why the strong mechanism was bypassed. The CAPTCHA is a challenge like
// any other: a fresh nonce whose pending entry holds the order and the
// transcription.
func (p *Provider) handleFallbackRequest(m *FallbackRequest, j *journal) any {
	p.count(func(s *ProviderStats) { s.DowngradesRequested++ })
	if err := m.Tx.Validate(); err != nil {
		return &Outcome{Accepted: false, Reason: err.Error(), TxID: safeTxID(m.Tx)}
	}
	// The pending record holds the transcription beside the order.
	if size := 4 + m.Tx.size() + captcha.TextLen; size > maxPendingTxBytes {
		return &Outcome{Accepted: false, Reason: fmt.Sprintf("%v: fallback order of %d bytes exceeds %d",
			ErrInvalidTransaction, size, maxPendingTxBytes), TxID: m.Tx.ID}
	}
	p.auditAppend(AuditEntry{
		Kind: AuditDowngrade,
		At:   p.clock.Now(),
		Note: fmt.Sprintf("platform %q degraded to captcha after %d trusted-path failures: %s",
			clipName(m.PlatformID), m.Failures, clipName(m.Reason)),
	}, j)
	text := captcha.Text(p.captchas)
	txCopy := *m.Tx
	nonce := p.issueChallenge(pendingChallenge{kind: pendingFallback, tx: &txCopy, username: text}, j)
	return &FallbackChallenge{Nonce: nonce, Text: text}
}

// clipName cuts client text an audit note quotes to maxNameLen bytes,
// so the entry stays a field the snapshot and WAL readers accept.
func clipName(s string) string {
	if len(s) > maxNameLen {
		return s[:maxNameLen]
	}
	return s
}

// handleFallbackAnswer grades a CAPTCHA answer and, on success, executes
// the challenge's order under the weaker regime: Accepted but explicitly
// not Authentic, and audit-logged as a fallback execution with no
// evidence.
func (p *Provider) handleFallbackAnswer(m *FallbackAnswer, j *journal) any {
	pend, cached, rejection := p.takePending(m.Nonce, pendingFallback, j)
	if cached != nil {
		return cached
	}
	if rejection != "" {
		return &Outcome{Accepted: false, Reason: rejection, Retryable: true}
	}
	return p.rememberOutcome(m.Nonce, p.fallbackOutcome(pend.tx, m.Response == pend.username, j), j)
}

// fallbackOutcome computes the outcome of a live (non-replayed) CAPTCHA
// answer for the order tx.
func (p *Provider) fallbackOutcome(tx *Transaction, passed bool, j *journal) *Outcome {
	if !passed {
		p.count(func(s *ProviderStats) { s.FallbackFailed++ })
		return &Outcome{Accepted: false, Reason: "captcha failed", TxID: tx.ID, Retryable: true}
	}
	if err := p.applyTx(tx, j); err != nil {
		if errors.Is(err, ErrDuplicateTransaction) {
			// The order already executed in an earlier life or session;
			// don't debit twice, don't double-log.
			return &Outcome{Accepted: true, Authentic: false, Reason: "already executed", TxID: tx.ID}
		}
		p.count(func(s *ProviderStats) { s.LedgerRejected++ })
		return &Outcome{Accepted: false, Reason: err.Error(), TxID: tx.ID}
	}
	p.auditAppend(AuditEntry{
		Kind:     AuditFallbackTx,
		At:       p.clock.Now(),
		TxID:     tx.ID,
		TxDigest: tx.Digest(),
		Note:     "executed on captcha-gated fallback path (no attestation)",
	}, j)
	p.count(func(s *ProviderStats) { s.FallbackPassed++ })
	return &Outcome{Accepted: true, Authentic: false, Reason: "captcha passed (degraded path)", TxID: tx.ID}
}

// count applies a mutation to the stats under the lock.
func (p *Provider) count(f func(*ProviderStats)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f(&p.stats)
}

// safeTxID extracts a transaction ID from possibly nil transactions.
func safeTxID(tx *Transaction) string {
	if tx == nil {
		return ""
	}
	return tx.ID
}
