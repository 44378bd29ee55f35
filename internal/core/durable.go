package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unitp/internal/attest"
	"unitp/internal/cryptoutil"
	"unitp/internal/obs"
	"unitp/internal/store"
)

// Provider durability. When a store is attached, every state mutation a
// request performs — challenge issue/redeem, outcome remembered, ledger
// apply, audit append, token grant, key install — is collected into a
// per-request journal and committed to the WAL as ONE group record,
// synced before the response leaves the provider. Group commit is what
// makes each request's durability atomic: a crash tears either the
// whole group (the client retries into a clean provider) or nothing.
// RestoreProvider rebuilds a provider from the latest snapshot plus the
// WAL tail, re-verifying the audit hash chain end to end, and rotates
// into a fresh generation so torn tails are discarded for good.
//
// While a store is attached, the state transition serializes on stateMu
// — WAL order then equals mutation order, which replay depends on
// (audit chain links, balance-dependent transfers) — but the expensive
// stages on either side run concurrently: verification before the lock
// (preverify.go), and durability after it, through the group committer
// below. The committer batches every journal enqueued while a sync was
// in flight into the next write set, so N concurrent requests cost one
// fsync, not N. It runs as a self-terminating goroutine spawned on
// demand: the first waiter to find no committer running starts one, and
// it exits as soon as the provider goes quiet. Crash atomicity is
// unchanged — groups hit the WAL in enqueue order and a response is
// released only after its group's sync, so a crash still tears whole
// groups off the tail, never a group's middle.

// recKind tags one WAL journal record.
type recKind uint8

// Journal record kinds.
const (
	recLedgerApply recKind = iota + 1
	recChallengeIssued
	recPendingDropped
	recNonceRedeemed
	recOutcomeCached
	recAuditAppended
	recPresenceToken
	recHMACKey
	recCredential
	recPlatformBound
	// recFallbackOutcome held an answered CAPTCHA's outcome under its
	// per-life counter ID. It is no longer written: a CAPTCHA is a
	// challenge like any other and its outcome an outcome-cached record.
	// Replay reads and discards one from an older WAL.
	recFallbackOutcome
	recCounters
)

// String names the kind for diagnostics.
func (k recKind) String() string {
	switch k {
	case recLedgerApply:
		return "ledger-apply"
	case recChallengeIssued:
		return "challenge-issued"
	case recPendingDropped:
		return "pending-dropped"
	case recNonceRedeemed:
		return "nonce-redeemed"
	case recOutcomeCached:
		return "outcome-cached"
	case recAuditAppended:
		return "audit-appended"
	case recPresenceToken:
		return "presence-token"
	case recHMACKey:
		return "hmac-key"
	case recCredential:
		return "credential"
	case recPlatformBound:
		return "platform-bound"
	case recFallbackOutcome:
		return "fallback-outcome"
	case recCounters:
		return "counters"
	default:
		return fmt.Sprintf("rec(%d)", uint8(k))
	}
}

// groupVersion versions the WAL group-record framing.
const groupVersion = 1

// journal encodes one request's mutation records in place, as the WAL
// group record it commits: the group header (version and record count),
// then one length-prefixed field per record holding the record's kind
// and body. The count is patched into the header when the group is
// taken. A nil journal (provider without a store) makes every emit a
// no-op, so handlers call emit methods unconditionally.
type journal struct {
	b cryptoutil.Buffer
	n int // records
}

// journalCap is a journal buffer's first capacity, which a session
// confirmation's group fits in.
const journalCap = 512

// emit appends one kind-tagged record.
func (j *journal) emit(kind recKind, body func(b *cryptoutil.Buffer)) {
	if j == nil {
		return
	}
	if j.n == 0 {
		j.b = *cryptoutil.NewBuffer(journalCap)
		j.b.PutUint8(groupVersion)
		j.b.PutUint32(0)
	}
	start := j.b.BeginField()
	j.b.PutUint8(uint8(kind))
	body(&j.b)
	j.b.EndField(start)
	j.n++
}

// group returns the journal as one WAL group record.
func (j *journal) group() []byte {
	data := j.b.Bytes()
	binary.BigEndian.PutUint32(data[1:5], uint32(j.n))
	return data
}

// ledgerApplied journals an executed transaction from its history
// field, as Ledger.apply hands it over.
func (j *journal) ledgerApplied(field []byte) {
	j.emit(recLedgerApply, func(b *cryptoutil.Buffer) { b.PutRaw(field) })
}

func (j *journal) challengeIssued(nonce attest.Nonce, pend pendingChallenge) {
	j.emit(recChallengeIssued, func(b *cryptoutil.Buffer) {
		b.PutRaw(nonce[:])
		putPendingChallenge(b, pend)
	})
}

func (j *journal) pendingDropped(nonce attest.Nonce) {
	j.emit(recPendingDropped, func(b *cryptoutil.Buffer) { b.PutRaw(nonce[:]) })
}

func (j *journal) nonceRedeemed(nonce attest.Nonce) {
	j.emit(recNonceRedeemed, func(b *cryptoutil.Buffer) { b.PutRaw(nonce[:]) })
}

func (j *journal) outcomeCached(nonce attest.Nonce, at time.Time, o *Outcome) {
	j.emit(recOutcomeCached, func(b *cryptoutil.Buffer) {
		b.PutRaw(nonce[:])
		b.PutUint64(uint64(at.UnixNano()))
		putOutcomeField(b, o)
	})
}

// auditAppended journals an appended audit entry from its field, as
// AuditLog.append hands it over.
func (j *journal) auditAppended(field []byte) {
	j.emit(recAuditAppended, func(b *cryptoutil.Buffer) { b.PutRaw(field) })
}

func (j *journal) presenceTokenGranted(token string) {
	j.emit(recPresenceToken, func(b *cryptoutil.Buffer) { b.PutString(token) })
}

func (j *journal) hmacKeyInstalled(platformID string, key []byte) {
	j.emit(recHMACKey, func(b *cryptoutil.Buffer) {
		b.PutString(platformID)
		b.PutBytes(key)
	})
}

func (j *journal) credentialEnrolled(username string, digest [32]byte) {
	j.emit(recCredential, func(b *cryptoutil.Buffer) {
		b.PutString(username)
		b.PutRaw(digest[:])
	})
}

func (j *journal) platformBound(account, platformID string) {
	j.emit(recPlatformBound, func(b *cryptoutil.Buffer) {
		b.PutString(account)
		b.PutString(platformID)
	})
}

// countersRecorded journals the provider's persisted counters, as the
// snapshot's stats section holds them.
func (j *journal) countersRecorded(stats *ProviderStats) {
	j.emit(recCounters, func(b *cryptoutil.Buffer) { putStats(b, stats) })
}

// commitReq is one request's journal waiting for group commit. done is
// buffered so a leader can deliver results without blocking on waiters.
type commitReq struct {
	group []byte
	done  chan error
}

// committer batches in-flight journals into group commits. Its commit
// loop is spawned on demand by the first waiter and commits every
// queued journal as one WAL write set with a single sync, repeating
// while new journals keep arriving, then exits. Queue order is WAL
// order: journals are enqueued while their request still holds stateMu.
type committer struct {
	mu      sync.Mutex
	idle    sync.Cond // signaled at committer exit; see waitCommitterIdle
	queue   []*commitReq
	leading bool // a commitLoop goroutine is running

	// arriving counts requests that entered the pipelined durable path
	// but have not yet enqueued their journal (they are mid-verify or
	// mid-state-transition). The leader uses it to gather a write set:
	// as long as requests are still arriving, waiting a few microseconds
	// folds their journals into this sync instead of paying them a sync
	// each. A plain scheduler yield is not enough — on a single-CPU
	// host, whether yielded-to goroutines actually run before the
	// leader's fsync depends on runtime internals, and when they don't,
	// commits degenerate to singletons.
	arriving atomic.Int64

	// sinceSnap counts groups committed since the last cadence point
	// (see cadencePoint). batchSizes histograms the committed write-set
	// sizes for the F12 experiment.
	sinceSnap  int
	batchSizes map[int]int
}

// Write-set gathering bounds. All committer waiting is done with
// runtime.Gosched, never a timer sleep: a yield hands the CPU to every
// runnable request and returns in nanoseconds once they have parked,
// while the kernel's sleep granularity (~1ms on a tickless 1kHz host —
// orders of magnitude above an fsync) would stall the commit path.
// gatherSpins caps how many yields the committer spends waiting for
// requests that entered the pipeline but have not enqueued yet; the
// counter check ends the wait the moment the last one arrives.
// gatherLingers bounds how many empty-queue yields the committer
// survives after a multi-request batch before exiting. Both caps keep
// the wait bounded even when an arriving request is stalled behind a
// quiescing snapshot, so gathering can only win: it trades nanoseconds
// of yielding for syncs amortized across the whole write set.
const (
	gatherSpins   = 32
	gatherLingers = 4
)

// init wires the condition variable and distribution map.
func (c *committer) init() {
	c.idle.L = &c.mu
	c.batchSizes = make(map[int]int)
}

// enqueueGroup queues one journal for the next group commit. The caller
// must hold stateMu — that is what makes queue order equal mutation
// order — and must call awaitCommit after releasing it.
func (p *Provider) enqueueGroup(j *journal) *commitReq {
	req := &commitReq{group: j.group(), done: make(chan error, 1)}
	c := &p.commit
	c.mu.Lock()
	c.queue = append(c.queue, req)
	c.mu.Unlock()
	return req
}

// awaitCommit blocks until req's group is durable (or the store died).
// The first waiter to find no committer running spawns one; everyone
// parks on their done channel until the committer delivers their
// batch's result.
func (p *Provider) awaitCommit(req *commitReq) error {
	c := &p.commit
	c.mu.Lock()
	if !c.leading {
		c.leading = true
		go p.commitLoop()
	}
	c.mu.Unlock()
	return <-req.done
}

// commitLoop is the committer: it drains the queue in gathered batches
// until the provider goes quiet, then exits. Running detached — instead
// of conscripting one waiting request as leader — matters in a closed
// loop: a request-borne leader either starves its own client by staying
// on to commit everyone else's batches, or steps down into the
// microsecond gap before the requests it just released re-arrive and
// the next arrival pays a singleton sync. The loop self-terminates, so
// a provider holds no goroutine while idle and needs no teardown hook.
func (p *Provider) commitLoop() {
	c := &p.commit
	lastBatch := 0
	lingers := 0
	yielded := false
	c.mu.Lock()
	for {
		// Yield once before every cut (cheap — a no-op when nothing
		// else is runnable). This goroutine can hold the CPU ahead of
		// requests that are runnable but have not executed an
		// instruction yet — freshly spawned, it runs before them; after
		// a delivery, the clients it just released re-submit
		// immediately. Those requests are invisible to both the queue
		// and the arriving counter, and cutting without the yield
		// strands them in a separate write set: the pool splits into
		// cohorts that each pay their own sync. The yield carries every
		// runnable request all the way to its enqueue (it parks only
		// once queued), so cohorts merge back into one batch.
		if !yielded {
			yielded = true
			c.mu.Unlock()
			runtime.Gosched()
			c.mu.Lock()
			continue
		}
		// Gather the write set: requests that are mid-verify on other
		// goroutines get a bounded number of yields to join this sync,
		// so the arrival that ends an idle period doesn't pay a
		// singleton sync with company right behind it. On a quiet
		// provider arriving is already zero and this costs nothing.
		for spins := 0; spins < gatherSpins && c.arriving.Load() > 0; spins++ {
			c.mu.Unlock()
			runtime.Gosched()
			c.mu.Lock()
		}
		if len(c.queue) == 0 {
			// Linger a few yields after a multi-request batch —
			// concurrent load tends to come back — then step down.
			if lastBatch > 1 && lingers < gatherLingers {
				lingers++
				yielded = false
				c.mu.Unlock()
				runtime.Gosched()
				c.mu.Lock()
				continue
			}
			break
		}
		lingers = 0
		yielded = false
		batch := c.queue
		c.queue = nil
		c.mu.Unlock()
		err := p.commitBatch(batch)
		c.mu.Lock()
		lastBatch = len(batch)
		if err == nil {
			c.sinceSnap += len(batch)
			c.batchSizes[len(batch)]++
			if p.snapEvery > 0 && c.sinceSnap >= p.snapEvery && len(c.queue) == 0 {
				err = p.cadenceInLoop()
			}
		}
		c.mu.Unlock()
		// Waiters are released only after a due cadence point, and its
		// failure is their failure: a rotation or counters group then
		// lands at a deterministic point in the request stream (the
		// commit that crossed the cadence, which also carries a crash
		// inside it back to its session), not whenever the loop next
		// happens to go quiet. Generation boundaries and crash cascades
		// must not depend on goroutine scheduling.
		for _, r := range batch {
			r.done <- err
		}
		c.mu.Lock()
	}
	c.leading = false
	c.idle.Broadcast()
	c.mu.Unlock()
}

// cadenceInLoop runs the cadence point from inside the commit loop,
// called with c.mu held right after the batch that crossed the cadence
// and before that batch's waiters are released. It takes stateMu (so no
// new journal can be enqueued mid-snapshot) and re-checks the queue
// under both locks — a request that slipped in between the two
// acquisitions defers the cadence point to a later batch. A failure is
// returned so the caller can report it to the batch's waiters (the
// provider is marked dead by then).
func (p *Provider) cadenceInLoop() error {
	c := &p.commit
	// Lock order everywhere else is stateMu then c.mu; release and
	// re-acquire in that order rather than holding c.mu across stateMu.
	c.mu.Unlock()
	p.stateMu.Lock()
	var err error
	c.mu.Lock()
	if len(c.queue) == 0 && !p.isDead() {
		c.mu.Unlock()
		err = p.cadencePoint()
		c.mu.Lock()
	}
	p.stateMu.Unlock()
	return err
}

// commitBatch writes one batch of groups to the WAL — one write set
// carrying every group in queue order, then a single sync. Any store
// failure kills the provider: a half-durable provider must not keep
// answering.
func (p *Provider) commitBatch(batch []*commitReq) error {
	start := time.Now()
	groups := make([][]byte, len(batch))
	for i, r := range batch {
		groups[i] = r.group
	}
	if err := p.st.AppendAll(groups); err != nil {
		p.markDead()
		return err
	}
	if err := p.st.Sync(); err != nil {
		p.markDead()
		return err
	}
	if p.commitHook != nil {
		// Replication shipping point: the batch is durable locally; it
		// must reach the followers before any waiter is released, so a
		// response can never outlive every copy of its mutations. A
		// shipping failure kills the provider — the batch's requests
		// surface as transport-level failures and the clients retry
		// against whichever instance owns the shard next.
		if err := p.commitHook(groups); err != nil {
			p.markDead()
			return err
		}
	}
	p.ins.commits.Add(int64(len(batch)))
	p.ins.commitLatency.Record(time.Since(start))
	// The batch-size distribution rides the duration-valued histogram:
	// one sample per group commit, size n recorded as n microseconds.
	p.ins.commitBatchSize.Record(time.Duration(len(batch)) * time.Microsecond)
	return nil
}

// waitCommitterIdle blocks until no leader is running and the queue is
// empty. The caller must hold stateMu, which stops new journals from
// being enqueued; whatever is already queued has a waiter bound for
// awaitCommit (its enqueuer released stateMu first), so the queue
// drains without our help. Quiescence is what makes a snapshot safe:
// every mutation present in provider state is then covered by a synced
// WAL group or a previous snapshot, never in limbo.
func (p *Provider) waitCommitterIdle() {
	c := &p.commit
	c.mu.Lock()
	for c.leading || len(c.queue) > 0 {
		c.idle.Wait()
	}
	c.mu.Unlock()
}

// cadencePoint is the work due at the commit that crosses the snapshot
// cadence; the caller holds stateMu with the committer idle. Once the
// WAL since the last snapshot has reached that snapshot's payload size,
// it writes a full snapshot, so recovery reads at most about twice a
// snapshot's size. Until then it writes none, since every byte a
// snapshot would add is already in the synced WAL; it appends the
// counters instead, which no other record journals, as a group of their
// own and syncs it, so a restore loses at most one cadence of counter
// increments. That group is local: the commit hook does not ship it.
func (p *Provider) cadencePoint() error {
	if st := p.st.Stats(); st.WALBytes >= st.SnapshotBytes {
		return p.snapshotIdle()
	}
	p.mu.Lock()
	stats := p.stats
	p.mu.Unlock()
	var j journal
	j.countersRecorded(&stats)
	if err := p.st.Append(j.group()); err != nil {
		p.markDead()
		return err
	}
	if err := p.st.Sync(); err != nil {
		p.markDead()
		return err
	}
	p.resetCadence()
	return nil
}

// snapshotIdle writes the current state as a new generation. The caller
// must hold stateMu with the committer idle.
func (p *Provider) snapshotIdle() error {
	if err := p.encodeSnapshot(p.st.WriteSnapshotFrame); err != nil {
		p.markDead()
		return err
	}
	p.resetCadence()
	return nil
}

// resetCadence starts counting commits toward the next cadence point.
func (p *Provider) resetCadence() {
	c := &p.commit
	c.mu.Lock()
	c.sinceSnap = 0
	c.mu.Unlock()
}

// CommitBatchSizes returns a copy of the group-commit batch-size
// distribution: how many committed write sets contained exactly n
// journals, keyed by n. Experiments diff two snapshots of this map to
// report the distribution for one measured window.
func (p *Provider) CommitBatchSizes() map[int]int {
	c := &p.commit
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]int, len(c.batchSizes))
	for n, count := range c.batchSizes {
		out[n] = count
	}
	return out
}

// putTxField appends a transaction's canonical encoding as one
// length-prefixed field, encoded in place.
func putTxField(b *cryptoutil.Buffer, tx *Transaction) {
	start := b.BeginField()
	tx.put(b)
	b.EndField(start)
}

// putOutcomeField appends an Outcome's wire form as one length-prefixed
// field, encoded in place.
func putOutcomeField(b *cryptoutil.Buffer, o *Outcome) {
	start := b.BeginField()
	o.put(b)
	b.EndField(start)
}

// unmarshalOutcome decodes an Outcome wire form.
func unmarshalOutcome(data []byte) (*Outcome, error) {
	msg, err := DecodeMessage(data)
	if err != nil {
		return nil, err
	}
	o, ok := msg.(*Outcome)
	if !ok {
		return nil, fmt.Errorf("%w: expected outcome, got %T", ErrBadMessage, msg)
	}
	return o, nil
}

// pendingRecordOverhead is what a challenge-issued WAL record adds
// around its transaction fields: record kind, nonce, pending kind,
// single-transaction flag, batch count, username length, issue time.
const pendingRecordOverhead = 1 + attest.NonceSize + 1 + 1 + 4 + 4 + 8

// putPendingChallenge encodes one pending-challenge context.
func putPendingChallenge(b *cryptoutil.Buffer, pend pendingChallenge) {
	b.PutUint8(uint8(pend.kind))
	b.PutBool(pend.tx != nil)
	if pend.tx != nil {
		putTxField(b, pend.tx)
	}
	b.PutUint32(uint32(len(pend.batch)))
	for i := range pend.batch {
		putTxField(b, &pend.batch[i])
	}
	b.PutString(pend.username)
	b.PutUint64(uint64(pend.issuedAt.UnixNano()))
}

// readPendingChallenge decodes one pending-challenge context.
func readPendingChallenge(r *cryptoutil.Reader) (pendingChallenge, error) {
	var pend pendingChallenge
	pend.kind = pendingKind(r.Uint8())
	if r.Bool() {
		tx, err := UnmarshalTransaction(r.Bytes())
		if err != nil {
			return pend, err
		}
		pend.tx = tx
	}
	n := r.Uint32()
	if r.Err() != nil {
		return pend, r.Err()
	}
	if n > maxBatchSize {
		return pend, fmt.Errorf("core: restored batch of %d", n)
	}
	for i := uint32(0); i < n; i++ {
		tx, err := UnmarshalTransaction(r.Bytes())
		if err != nil {
			return pend, err
		}
		pend.batch = append(pend.batch, *tx)
	}
	pend.username = r.String()
	pend.issuedAt = time.Unix(0, int64(r.Uint64()))
	return pend, r.Err()
}

// statsFields enumerates the persisted counters in fixed wire order.
// Appending a field here extends the snapshot format compatibly (the
// count prefix lets older snapshots restore into newer providers).
// SweptByShard is deliberately absent: it is live shard bookkeeping,
// not persisted state.
func statsFields(s *ProviderStats) []*int {
	return []*int{
		&s.Submitted, &s.AutoAccepted, &s.Challenged, &s.Confirmed,
		&s.DeniedByUser, &s.RejectedForged, &s.RejectedStale,
		&s.PresenceGranted, &s.PresenceRejected, &s.Provisioned,
		&s.LedgerRejected, &s.ExpiredChallenges, &s.ExpiredOutcomes,
		&s.LoginsGranted, &s.LoginsRejected, &s.BatchesConfirmed,
		&s.CorruptFrames, &s.DowngradesRequested,
		&s.FallbackPassed, &s.FallbackFailed,
		&s.SessionsOpened, &s.SessionsConfirmed,
		&s.SessionDemotions, &s.ExpiredSessions,
	}
}

// putStats appends the persisted counters: their count, then each as a
// u64 in statsFields order.
func putStats(b *cryptoutil.Buffer, s *ProviderStats) {
	fields := statsFields(s)
	b.PutUint32(uint32(len(fields)))
	for _, f := range fields {
		b.PutUint64(uint64(*f))
	}
}

// readStats decodes counters putStats wrote into s, which may hold
// fewer fields than this provider knows, never more.
func readStats(r *cryptoutil.Reader, s *ProviderStats) error {
	n := int(r.Uint32())
	fields := statsFields(s)
	if n > len(fields) {
		return fmt.Errorf("core: %d stat fields, provider knows %d", n, len(fields))
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		*fields[i] = int(r.Uint64())
	}
	return r.Err()
}

// providerSnapshotVersion versions the provider-state snapshot payload.
// Version 2 dropped version 1's nonce-cache section (issued nonces,
// spent nonces and their two counts) from the tail, and version 3 the
// answered-CAPTCHA section before it. Version 1 and 2 payloads still
// restore, the retired sections skipped: the CAPTCHA outcomes sit under
// per-life counter IDs that no client can present again, and the
// ledger's idempotence still refuses to execute their orders twice.
const providerSnapshotVersion = 3

// encodeSnapshot serializes the provider's full durable state and hands
// it to write in parts, which concatenate to the snapshot payload after
// store.SnapshotHeaderLen bytes left for the store's envelope header
// (Store.WriteSnapshotFrame fills them in and appends the CRC to the
// last part):
//
//  1. the reserved header, the payload version and the account count;
//  2. the ledger's balances arena itself;
//  3. the chunks of the ledger's history section;
//  4. the chunks of the audit log's section;
//  5. the session state and every later section (the tail), encoded
//     here.
//
// Parts 2 to 4 are the ledger's and the audit log's live memory, neither
// encoded nor copied, so both stay locked until write returns. Every
// section is written in a canonical order (accounts by name, history and
// audit in execution order, nonces bytewise, map keys sorted), so the
// same state always produces the same bytes.
func (p *Provider) encodeSnapshot(write func(frame []byte, more ...[]byte) error) error {
	l, a := p.ledger, p.audit
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sortLocked()
	tail := p.encodeTail()
	a.mu.Lock()
	defer a.mu.Unlock()

	head := make([]byte, store.SnapshotHeaderLen, store.SnapshotHeaderLen+1+4)
	head = append(head, providerSnapshotVersion)
	head = binary.BigEndian.AppendUint32(head, uint32(l.count))
	history, audit := l.history.parts(), a.entries.parts()
	parts := make([][]byte, 0, 2+len(history)+len(audit))
	parts = append(parts, l.balances)
	parts = append(parts, history...)
	parts = append(parts, audit...)
	return write(head, append(parts, tail)...)
}

// encodeTail encodes the snapshot sections after the audit log: the
// session, key and counter state.
func (p *Provider) encodeTail() []byte {
	// Size the buffer for the previous tail plus room to grow: the
	// state changes little between rotations.
	last := int(p.snapTail.Load())
	b := cryptoutil.NewBuffer(last + last/16 + 4096)

	// Session state is merged across the stripes (the snapshot's sorted
	// writes erase the shard structure, so shard count is a runtime
	// constant, not a wire-format parameter).
	var nPending, nAnswered int
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		nPending, nAnswered = nPending+len(sh.pending), nAnswered+len(sh.answered)
		sh.mu.Unlock()
	}
	pendingNonces, pending := make([]attest.Nonce, 0, nPending), make([]pendingChallenge, 0, nPending)
	answeredNonces, answered := make([]attest.Nonce, 0, nAnswered), make([]answeredChallenge, 0, nAnswered)
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for n, pend := range sh.pending {
			pendingNonces = append(pendingNonces, n)
			pending = append(pending, pend)
		}
		for n, a := range sh.answered {
			answeredNonces = append(answeredNonces, n)
			answered = append(answered, a)
		}
		sh.mu.Unlock()
	}
	b.PutUint32(uint32(len(pending)))
	for _, at := range attest.ByteOrder(pendingNonces) {
		b.PutRaw(pendingNonces[at][:])
		putPendingChallenge(b, pending[at])
	}
	b.PutUint32(uint32(len(answered)))
	for _, at := range attest.ByteOrder(answeredNonces) {
		b.PutRaw(answeredNonces[at][:])
		b.PutUint64(uint64(answered[at].at.UnixNano()))
		putOutcomeField(b, &answered[at].outcome)
	}

	p.mu.Lock()
	keys := sortedKeys(p.hmacKeys)
	b.PutUint32(uint32(len(keys)))
	for _, k := range keys {
		b.PutString(k)
		b.PutBytes(p.hmacKeys[k])
	}
	keys = sortedKeys(p.presence)
	b.PutUint32(uint32(len(keys)))
	for _, tok := range keys {
		b.PutString(tok)
	}
	keys = sortedKeys(p.creds)
	b.PutUint32(uint32(len(keys)))
	for _, k := range keys {
		d := p.creds[k]
		b.PutString(k)
		b.PutRaw(d[:])
	}
	keys = sortedKeys(p.platforms)
	b.PutUint32(uint32(len(keys)))
	for _, k := range keys {
		b.PutString(k)
		b.PutString(p.platforms[k])
	}
	stats := p.stats
	p.mu.Unlock()
	putStats(b, &stats)

	p.snapTail.Store(int64(b.Len()))
	return b.Bytes()
}

// loadState restores the provider from a full snapshot payload. Audit
// entries are verified as AuditLog.Restore does, every chain link.
func (p *Provider) loadState(data []byte) error {
	r := cryptoutil.NewReader(data)
	version, err := p.loadSections(r, data)
	if err != nil {
		return err
	}
	if err := p.loadTail(r, version); err != nil {
		return err
	}
	if err := r.ExpectEOF(); err != nil {
		return fmt.Errorf("core: provider snapshot: %w", err)
	}
	return nil
}

// loadSections restores the snapshot sections before the tail: the
// balances, the history and the audit log. It returns the payload's
// version, which the tail's layout depends on.
func (p *Provider) loadSections(r *cryptoutil.Reader, data []byte) (uint8, error) {
	version := r.Uint8()
	if version < 1 || version > providerSnapshotVersion {
		return 0, fmt.Errorf("core: unsupported provider snapshot version %d", version)
	}

	// Accounts must arrive in strictly ascending name order: that is
	// the order encodeSnapshot writes, and the ledger's index relies on
	// names being unique. The section is checked in place, then handed
	// to the ledger as one copy.
	count := int(r.Uint32())
	size := r.Remaining()
	var prev []byte
	for i := 0; i < count && r.Err() == nil; i++ {
		name := r.Field()
		r.Uint64()
		if r.Err() == nil && i > 0 && bytes.Compare(name, prev) <= 0 {
			return 0, fmt.Errorf("core: snapshot account %q out of order or duplicated after %q", name, prev)
		}
		prev = name
	}
	if r.Err() != nil {
		return 0, fmt.Errorf("core: snapshot balances: %w", r.Err())
	}
	start := len(data) - size
	size -= r.Remaining()
	if size > math.MaxInt32 {
		return 0, fmt.Errorf("core: snapshot balances of %d bytes", size)
	}
	balances := bytes.Clone(data[start : start+size])
	// The history and audit sections are checked in place, then each is
	// handed over as one copy; every audit entry's chain link is
	// verified first.
	n := int(r.Uint32())
	history, err := readFields(r, data, n, func(body []byte) error {
		_, err := UnmarshalTransaction(body)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("core: snapshot history: %w", err)
	}
	p.ledger.restoreState(count, balances, history, n)
	if err := p.audit.loadFields(r, data, int(r.Uint32())); err != nil {
		return 0, fmt.Errorf("core: snapshot audit: %w", err)
	}
	return version, nil
}

// loadTail restores the snapshot's tail, the sections after the audit
// log, at r's position, from a payload of the given version.
func (p *Provider) loadTail(r *cryptoutil.Reader, version uint8) error {
	for i, n := 0, int(r.Uint32()); i < n && r.Err() == nil; i++ {
		var nonce attest.Nonce
		copy(nonce[:], r.Raw(attest.NonceSize))
		pend, err := readPendingChallenge(r)
		if err != nil {
			return fmt.Errorf("core: snapshot pending: %w", err)
		}
		sh := p.shardFor(nonce)
		sh.mu.Lock()
		sh.pending[nonce] = pend
		sh.mu.Unlock()
	}
	for i, n := 0, int(r.Uint32()); i < n && r.Err() == nil; i++ {
		var nonce attest.Nonce
		copy(nonce[:], r.Raw(attest.NonceSize))
		at := time.Unix(0, int64(r.Uint64()))
		o, err := unmarshalOutcome(r.Bytes())
		if err != nil {
			return fmt.Errorf("core: snapshot answered: %w", err)
		}
		sh := p.shardFor(nonce)
		sh.mu.Lock()
		sh.answered[nonce] = answeredChallenge{outcome: *o, at: at}
		sh.mu.Unlock()
	}
	p.mu.Lock()
	for i, n := 0, int(r.Uint32()); i < n && r.Err() == nil; i++ {
		k := r.String()
		p.hmacKeys[k] = r.Bytes()
	}
	for i, n := 0, int(r.Uint32()); i < n && r.Err() == nil; i++ {
		p.presence[r.String()] = true
	}
	for i, n := 0, int(r.Uint32()); i < n && r.Err() == nil; i++ {
		k := r.String()
		var d [32]byte
		copy(d[:], r.Raw(32))
		p.creds[k] = d
	}
	for i, n := 0, int(r.Uint32()); i < n && r.Err() == nil; i++ {
		k := r.String()
		p.platforms[k] = r.String()
	}
	p.mu.Unlock()

	if version < 3 {
		// The retired answered-CAPTCHA section: counter IDs and their
		// outcomes.
		for i, n := 0, int(r.Uint32()); i < n && r.Err() == nil; i++ {
			r.Uint64()
			r.Field()
		}
	}
	if version == 1 {
		// The retired nonce cache: issued nonces with their issue
		// times, spent nonces, then the two counts. The pending
		// section above already holds every live challenge.
		r.Skip(int(r.Uint32()) * (attest.NonceSize + 8))
		r.Skip(int(r.Uint32()) * attest.NonceSize)
		r.Skip(16)
	}

	p.mu.Lock()
	err := readStats(r, &p.stats)
	p.mu.Unlock()
	if err != nil {
		return fmt.Errorf("core: snapshot tail: %w", err)
	}
	return nil
}

// replayGroup applies one WAL group record.
func (p *Provider) replayGroup(group []byte) error {
	r := cryptoutil.NewReader(group)
	if v := r.Uint8(); v != groupVersion {
		return fmt.Errorf("core: unsupported WAL group version %d", v)
	}
	n := int(r.Uint32())
	if r.Err() != nil {
		return fmt.Errorf("core: WAL group header: %w", r.Err())
	}
	for i := 0; i < n; i++ {
		rec := r.Bytes()
		if r.Err() != nil {
			return fmt.Errorf("core: WAL group record %d: %w", i, r.Err())
		}
		if err := p.replayRecord(rec); err != nil {
			return fmt.Errorf("core: WAL group record %d: %w", i, err)
		}
	}
	if err := r.ExpectEOF(); err != nil {
		return fmt.Errorf("core: WAL group: %w", err)
	}
	return nil
}

// replayRecord applies one journal record. Replays are idempotent with
// respect to the snapshot they follow: each record re-performs exactly
// the mutation it journaled.
func (p *Provider) replayRecord(rec []byte) error {
	r := cryptoutil.NewReader(rec)
	kind := recKind(r.Uint8())
	if r.Err() != nil {
		return fmt.Errorf("core: empty WAL record")
	}
	switch kind {
	case recLedgerApply:
		tx, err := UnmarshalTransaction(r.Field())
		if err != nil {
			return err
		}
		if err := p.ledger.Apply(tx); err != nil {
			return fmt.Errorf("core: replay %s %s: %w", kind, tx.ID, err)
		}
	case recChallengeIssued:
		var nonce attest.Nonce
		copy(nonce[:], r.Raw(attest.NonceSize))
		pend, err := readPendingChallenge(r)
		if err != nil {
			return err
		}
		sh := p.shardFor(nonce)
		sh.mu.Lock()
		sh.pending[nonce] = pend
		sh.mu.Unlock()
	case recPendingDropped, recNonceRedeemed:
		var nonce attest.Nonce
		copy(nonce[:], r.Raw(attest.NonceSize))
		sh := p.shardFor(nonce)
		sh.mu.Lock()
		delete(sh.pending, nonce)
		sh.mu.Unlock()
	case recOutcomeCached:
		var nonce attest.Nonce
		copy(nonce[:], r.Raw(attest.NonceSize))
		at := time.Unix(0, int64(r.Uint64()))
		o, err := unmarshalOutcome(r.Bytes())
		if err != nil {
			return err
		}
		sh := p.shardFor(nonce)
		sh.mu.Lock()
		sh.answered[nonce] = answeredChallenge{outcome: *o, at: at}
		sh.mu.Unlock()
	case recAuditAppended:
		if err := p.audit.restore(r.Field()); err != nil {
			return err
		}
	case recPresenceToken:
		tok := r.String()
		p.mu.Lock()
		p.presence[tok] = true
		p.mu.Unlock()
	case recHMACKey:
		platform := r.String()
		key := r.Bytes()
		p.mu.Lock()
		p.hmacKeys[platform] = key
		p.mu.Unlock()
	case recCredential:
		user := r.String()
		var d [32]byte
		copy(d[:], r.Raw(32))
		p.mu.Lock()
		p.creds[user] = d
		p.mu.Unlock()
	case recPlatformBound:
		account := r.String()
		platform := r.String()
		p.mu.Lock()
		p.platforms[account] = platform
		p.mu.Unlock()
	case recFallbackOutcome:
		// Retired: an older WAL's answered CAPTCHA, keyed by an ID no
		// client can present again.
		r.Uint64()
		r.Field()
	case recCounters:
		p.mu.Lock()
		err := readStats(r, &p.stats)
		p.mu.Unlock()
		if err != nil {
			return fmt.Errorf("core: WAL record %s: %w", kind, err)
		}
	default:
		return fmt.Errorf("core: unknown WAL record kind %d", uint8(kind))
	}
	if r.Err() != nil {
		return fmt.Errorf("core: WAL record %s: %w", kind, r.Err())
	}
	return nil
}

// AttachStore makes the provider durable: every mutation from here on
// is WAL-journaled, and the provider's current state is written as the
// initial snapshot (so setup done before attaching — accounts,
// credentials, bindings — is captured). Attach once, after setup.
func (p *Provider) AttachStore(st *store.Store) error {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	st.SetMetrics(p.obsReg)
	p.st = st
	// No requests have gone through the durable path yet, so the
	// committer is trivially idle and the snapshot is safe.
	return p.snapshotIdle()
}

// Store returns the attached durability store (nil if none).
func (p *Provider) Store() *store.Store { return p.st }

// SnapshotNow forces a full snapshot + WAL rotation (graceful shutdown,
// or an operator checkpoint). It quiesces in-flight commits first.
func (p *Provider) SnapshotNow() error {
	if p.st == nil {
		return nil
	}
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	if p.isDead() {
		return store.ErrCrashed
	}
	p.waitCommitterIdle()
	return p.snapshotIdle()
}

// Quiesced runs fn while the provider is fully quiesced: stateMu is
// held (no request can enter its state transition or enqueue a
// journal) and the group committer has drained, so no commit — and no
// commit hook — is in flight. That is the window in which commit-hook
// state may be mutated safely and Store().ReadSegment's consistency
// contract holds; the fleet uses it to bootstrap a new follower from a
// live primary without racing the replication path.
func (p *Provider) Quiesced(fn func() error) error {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	if p.isDead() {
		return store.ErrCrashed
	}
	p.waitCommitterIdle()
	return fn()
}

// QuiescedSegment runs fn with the store's current segment while the
// provider is quiesced, as Quiesced does — the bootstrap of a follower.
// A non-empty WAL is first folded into a fresh snapshot, so the segment
// ships one full state and no records, no larger than a segment read
// right after a rotation.
func (p *Provider) QuiescedSegment(fn func(seg store.Segment) error) error {
	return p.Quiesced(func() error {
		if p.st.Stats().WALBytes > 0 {
			if err := p.snapshotIdle(); err != nil {
				return err
			}
		}
		seg, err := p.st.ReadSegment()
		if err != nil {
			return err
		}
		return fn(seg)
	})
}

// Health reports the provider's operational readiness for the admin
// plane: store attachment, WAL sync counts, last-snapshot age, and the
// dead flag a store failure raises.
func (p *Provider) Health() obs.Readiness {
	dead := p.isDead()
	fenced := p.fenced.Load()
	detail := map[string]any{
		"dead":               dead,
		"fenced":             fenced,
		"epoch":              p.epoch,
		"store_attached":     p.st != nil,
		"pending_challenges": p.PendingChallenges(),
	}
	if p.st != nil {
		st := p.st.Stats()
		detail["wal_generation"] = st.Generation
		detail["wal_appends"] = st.Appends
		detail["wal_syncs"] = st.Syncs
		if last := p.st.LastSnapshotTime(); !last.IsZero() {
			detail["last_snapshot_age_s"] = time.Since(last).Seconds()
		}
	}
	return obs.Readiness{Ready: !dead && !fenced, Detail: detail}
}

// mutateDurable runs an out-of-band mutation (BindPlatform,
// EnrollCredential) through the same durability pipeline as a request:
// mutate under stateMu, then group-commit whatever was journaled.
// Without a store it runs the mutation directly.
func (p *Provider) mutateDurable(fn func(j *journal) error) error {
	if p.fenced.Load() {
		return ErrFenced
	}
	if p.st == nil {
		return fn(nil)
	}
	p.stateMu.Lock()
	if p.isDead() {
		p.stateMu.Unlock()
		return store.ErrCrashed
	}
	j := &journal{}
	if err := fn(j); err != nil {
		p.stateMu.Unlock()
		return err
	}
	if j.n == 0 {
		p.stateMu.Unlock()
		return nil
	}
	req := p.enqueueGroup(j)
	p.stateMu.Unlock()
	return p.awaitCommit(req)
}

// isDead reports whether a store failure killed the provider.
func (p *Provider) isDead() bool { return p.dead.Load() }

// markDead records a fatal store failure.
func (p *Provider) markDead() { p.dead.Store(true) }

// RestoreProvider rebuilds a provider from a store: latest valid
// snapshot, then the WAL tail, finishing with a rotation into a fresh
// generation (which is how torn WAL tails are discarded durably). The
// audit hash chain is re-verified end to end on the way: the snapshot
// load and the replay check every entry's link as they take it. The
// caller re-applies configuration that is not state — the CA key,
// provider RSA key, and PAL approvals on Verifier() — exactly as at
// first construction.
func RestoreProvider(cfg ProviderConfig, st *store.Store) (*Provider, error) {
	p := NewProvider(cfg)
	// Recovery runs outside any client session, so it gets a trace of
	// its own — crash recovery must be attributable too.
	tr := p.tracer.StartSession(p.clock)
	tr.SetLabel("recovery")
	defer tr.Finish()

	sp := tr.StartSpan("recover.snapshot")
	if snap := st.Snapshot(); snap != nil {
		if err := p.loadState(snap); err != nil {
			return nil, fmt.Errorf("core: restore snapshot: %w", err)
		}
	}
	sp.End()
	sp = tr.StartSpan("recover.replay_wal")
	groups := st.Records()
	for i, group := range groups {
		if err := p.replayGroup(group); err != nil {
			return nil, fmt.Errorf("core: restore WAL group %d: %w", i, err)
		}
	}
	sp.End()
	tr.Event("recover.replayed", fmt.Sprintf("groups=%d", len(groups)))
	sp = tr.StartSpan("recover.rotate")
	if err := p.AttachStore(st); err != nil {
		return nil, fmt.Errorf("core: restore rotation: %w", err)
	}
	sp.End()
	p.ins.recoveries.Inc()
	return p, nil
}

// sortedKeys returns a map's string keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
