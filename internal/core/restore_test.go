package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"unitp/internal/attest"
	"unitp/internal/captcha"
	"unitp/internal/cryptoutil"
	"unitp/internal/sim"
	"unitp/internal/store"
)

// leanRestoreConfig is a keyless provider that challenges every
// transfer of at least 100 cents and auto-accepts smaller ones.
func leanRestoreConfig(clock *sim.VirtualClock) ProviderConfig {
	return ProviderConfig{
		Name:                  "restore-test",
		Clock:                 clock,
		Random:                sim.NewRand(0x5E5),
		ConfirmThresholdCents: 100,
	}
}

// reopen restores a provider from what backend holds.
func reopen(t *testing.T, cfg ProviderConfig, backend *store.MemBackend) (*Provider, error) {
	t.Helper()
	st, err := store.Open(backend)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	return RestoreProvider(cfg, st)
}

// sizedTx builds a transfer whose canonical encoding is exactly size
// bytes, the memo taking up the rest.
func sizedTx(id string, cents int64, size int) *Transaction {
	tx := &Transaction{ID: id, From: "alice", To: "bob", AmountCents: cents, Currency: "EUR"}
	tx.Memo = strings.Repeat("m", size-tx.size())
	return tx
}

// Transaction.Validate bounds a transaction's encoding so every durable
// record holding it can be read back. One byte over the bound is refused
// at submit, alone or in a batch, and journals nothing; the largest
// accepted transaction survives a restore from the WAL tail and from a
// snapshot, both while its challenge is pending and once executed.
func TestTransactionSizeBound(t *testing.T) {
	clock := sim.NewVirtualClock()
	cfg := leanRestoreConfig(clock)
	backend := store.NewMemBackend()
	st, err := store.Open(backend)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProvider(cfg)
	for acct, cents := range map[string]int64{"alice": 1 << 40, "bob": 0} {
		if err := p.Ledger().CreateAccount(acct, cents); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AttachStore(st); err != nil {
		t.Fatal(err)
	}

	over := sizedTx("over", 1000, maxTxSize+1)
	if err := over.Validate(); !errors.Is(err, ErrInvalidTransaction) {
		t.Fatalf("Validate one byte over the bound = %v, want ErrInvalidTransaction", err)
	}
	longID := sizedTx(strings.Repeat("i", maxNameLen+1), 1000, 2*maxNameLen)
	if err := longID.Validate(); !errors.Is(err, ErrInvalidTransaction) {
		t.Fatalf("Validate of an ID over the bound = %v, want ErrInvalidTransaction", err)
	}
	small := Transaction{ID: "small", From: "alice", To: "bob", AmountCents: 1000, Currency: "EUR"}
	half := maxTxSize/2 + 1
	for name, msg := range map[string]any{
		"submit":      &SubmitTx{Tx: over},
		"batch":       &SubmitBatch{Txs: []Transaction{small, *over}},
		"batch-total": &SubmitBatch{Txs: []Transaction{*sizedTx("h1", 1000, half), *sizedTx("h2", 1000, half)}},
		"auto-accept": &SubmitTx{Tx: sizedTx("over-small", 1, maxTxSize+1)},
		"long-id":     &SubmitTx{Tx: longID},
	} {
		out, ok := mustDecode(t, mustHandle(t, p, msg)).(*Outcome)
		if !ok || out.Accepted || !strings.Contains(out.Reason, ErrInvalidTransaction.Error()) {
			t.Fatalf("%s over the bound: %+v, want an invalid-transaction refusal", name, out)
		}
	}
	if n := p.PendingChallenges(); n != 0 {
		t.Fatalf("%d challenges pending after refusals", n)
	}
	if n := st.Stats().Appends; n != 0 {
		t.Fatalf("refusals journaled %d WAL groups", n)
	}

	// The largest accepted transactions carry the longest accepted IDs.
	largest := sizedTx(strings.Repeat("p", maxNameLen), 1000, maxTxSize)
	if err := largest.Validate(); err != nil {
		t.Fatalf("largest transaction refused: %v", err)
	}
	ch, ok := mustDecode(t, mustHandle(t, p, &SubmitTx{Tx: largest})).(*Challenge)
	if !ok {
		t.Fatal("largest transaction not challenged")
	}
	// The bound is exact: the pending challenge's WAL record around the
	// largest transaction is the largest field a reader accepts.
	j := &journal{}
	j.challengeIssued(ch.Nonce, pendingChallenge{kind: pendingConfirm, tx: largest, issuedAt: clock.Now()})
	if got := len(j.group()) - 5 - 4; got != cryptoutil.MaxFieldLen {
		t.Fatalf("pending record of the largest transaction is %d bytes, want %d", got, cryptoutil.MaxFieldLen)
	}
	applied := sizedTx(strings.Repeat("a", maxNameLen), 1, maxTxSize)
	if out, ok := mustDecode(t, mustHandle(t, p, &SubmitTx{Tx: applied})).(*Outcome); !ok || !out.Accepted {
		t.Fatalf("largest auto-accepted transaction: %+v", out)
	}

	// The first restore replays the WAL tail and rotates into a new
	// snapshot; the second restores from that snapshot alone.
	for _, from := range []string{"WAL tail", "snapshot"} {
		r, err := reopen(t, cfg, backend)
		if err != nil {
			t.Fatalf("restore from %s: %v", from, err)
		}
		sh := r.shardFor(ch.Nonce)
		sh.mu.Lock()
		pend, ok := sh.pending[ch.Nonce]
		sh.mu.Unlock()
		if !ok || pend.tx == nil || *pend.tx != *largest {
			t.Fatalf("restore from %s lost the pending largest transaction", from)
		}
		if h := r.Ledger().History(); len(h) != 1 || h[0] != *applied {
			t.Fatalf("restore from %s: history of %d transfers, want the largest applied one", from, len(h))
		}
	}
}

// RestoreProvider refuses an audit chain that does not link, whether
// the break sits inside a CRC-valid snapshot or in a WAL tail record
// that does not link onto the snapshot's head.
func TestRestoreRefusesBrokenAuditChain(t *testing.T) {
	clock := sim.NewVirtualClock()
	cfg := leanRestoreConfig(clock)
	withAudit := func(notes ...string) *Provider {
		p := NewProvider(cfg)
		for _, note := range notes {
			p.auditAppend(AuditEntry{Kind: AuditDowngrade, Note: note, At: clock.Now()}, nil)
		}
		return p
	}
	// stored writes state as a store's snapshot, followed by groups in
	// its WAL, and returns the backend.
	stored := func(state []byte, groups ...[]byte) *store.MemBackend {
		backend := store.NewMemBackend()
		st, err := store.Open(backend)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteSnapshot(state); err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			if err := st.Append(g); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		return backend
	}
	// appended journals one more entry onto p's log as a WAL group.
	appended := func(p *Provider, note string) []byte {
		j := &journal{}
		p.auditAppend(AuditEntry{Kind: AuditDowngrade, Note: note, At: clock.Now()}, j)
		return j.group()
	}

	t.Run("snapshot", func(t *testing.T) {
		p := withAudit("a", "b", "c")
		state := p.encodeState()
		if _, err := reopen(t, cfg, stored(state)); err != nil {
			t.Fatalf("intact snapshot: %v", err)
		}
		// Entry 1's chain value is written twice: as its own Chain and as
		// entry 2's PrevChain. Changing the second breaks that link.
		link := p.audit.Entries()[1].Chain
		first := bytes.Index(state, link[:])
		if first < 0 {
			t.Fatal("entry 1's chain value not found in the snapshot")
		}
		second := bytes.Index(state[first+len(link):], link[:])
		if second < 0 {
			t.Fatal("entry 2's prev link not found in the snapshot")
		}
		state[first+len(link)+second] ^= 1
		if _, err := reopen(t, cfg, stored(state)); !errors.Is(err, ErrChainBroken) {
			t.Fatalf("restore with a broken snapshot link = %v, want ErrChainBroken", err)
		}
	})

	t.Run("wal", func(t *testing.T) {
		p := withAudit("a", "b")
		state := p.encodeState()
		if _, err := reopen(t, cfg, stored(state, appended(p, "c"))); err != nil {
			t.Fatalf("intact WAL tail: %v", err)
		}
		// An entry at the right position, linked onto another log's head.
		other := withAudit("x", "y")
		if _, err := reopen(t, cfg, stored(state, appended(other, "c"))); !errors.Is(err, ErrChainBroken) {
			t.Fatalf("restore with an unlinked WAL audit record = %v, want ErrChainBroken", err)
		}
	})
}

// A login username or session account over maxNameLen is refused before
// a challenge is issued, so it journals nothing; one at the bound rides
// its pending challenge through a restore from the WAL tail.
func TestPendingNameBound(t *testing.T) {
	key, err := cryptoutil.PooledKey(3001)
	if err != nil {
		t.Fatal(err)
	}
	cfg := leanRestoreConfig(sim.NewVirtualClock())
	cfg.Key = key
	backend := store.NewMemBackend()
	st, err := store.Open(backend)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProvider(cfg)
	if err := p.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	over := strings.Repeat("n", maxNameLen+1)
	for name, msg := range map[string]any{
		"login":   &LoginRequest{Username: over},
		"session": &SessionOpen{PlatformID: "platform", Account: over},
	} {
		if out, ok := mustDecode(t, mustHandle(t, p, msg)).(*Outcome); !ok || out.Accepted {
			t.Fatalf("%s name over the bound: %+v, want a refusal", name, out)
		}
	}
	if n := st.Stats().Appends; n != 0 {
		t.Fatalf("refusals journaled %d WAL groups", n)
	}

	at := strings.Repeat("n", maxNameLen)
	login, ok := mustDecode(t, mustHandle(t, p, &LoginRequest{Username: at})).(*LoginChallenge)
	if !ok {
		t.Fatal("login at the bound not challenged")
	}
	sess, ok := mustDecode(t, mustHandle(t, p, &SessionOpen{PlatformID: "platform", Account: at})).(*SessionChallenge)
	if !ok {
		t.Fatal("session open at the bound not challenged")
	}
	r, err := reopen(t, cfg, backend)
	if err != nil {
		t.Fatalf("restore from the WAL tail: %v", err)
	}
	for _, nonce := range []attest.Nonce{login.Nonce, sess.Nonce} {
		sh := r.shardFor(nonce)
		sh.mu.Lock()
		pend, ok := sh.pending[nonce]
		sh.mu.Unlock()
		if !ok || pend.username != at {
			t.Fatalf("restore lost a pending challenge for the name at the bound")
		}
	}
}

// A fallback request's platform ID and reason, which the downgrade's
// audit note quotes, are clipped so the entry restores however long the
// client made them.
func TestFallbackNoteBound(t *testing.T) {
	cfg := leanRestoreConfig(sim.NewVirtualClock())
	backend := store.NewMemBackend()
	st, err := store.Open(backend)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProvider(cfg)
	if err := p.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	// %q spells each NUL byte with four characters.
	req := &FallbackRequest{
		PlatformID: strings.Repeat("\x00", 300_000), Failures: 3, Reason: strings.Repeat("r", 900_000),
		Tx: &Transaction{ID: "fb", From: "alice", To: "bob", AmountCents: 1, Currency: "EUR"},
	}
	if _, ok := mustDecode(t, mustHandle(t, p, req)).(*FallbackChallenge); !ok {
		t.Fatal("fallback request not challenged")
	}
	r, err := reopen(t, cfg, backend)
	if err != nil {
		t.Fatalf("restore from the WAL tail: %v", err)
	}
	if n := r.AuditLog().Len(); n != 1 {
		t.Fatalf("restored audit log holds %d entries, want the downgrade", n)
	}
}

// requestFallback asks p for a CAPTCHA that gates tx.
func requestFallback(t *testing.T, p *Provider, tx *Transaction) *FallbackChallenge {
	t.Helper()
	resp := mustDecode(t, mustHandle(t, p, &FallbackRequest{
		PlatformID: "platform-1", Reason: "pal launch failed", Failures: 3, Tx: tx,
	}))
	ch, ok := resp.(*FallbackChallenge)
	if !ok {
		t.Fatalf("fallback request for %s answered %+v", tx.ID, resp)
	}
	return ch
}

// answerFallback sends one transcription for a CAPTCHA.
func answerFallback(t *testing.T, p *Provider, ch *FallbackChallenge, response string) *Outcome {
	t.Helper()
	out, ok := mustDecode(t, mustHandle(t, p, &FallbackAnswer{Nonce: ch.Nonce, Response: response})).(*Outcome)
	if !ok {
		t.Fatal("fallback answer not answered with an outcome")
	}
	return out
}

// durableFallbackProvider is a lean provider over a fresh in-memory
// store, with alice holding aliceCents and bob nothing.
func durableFallbackProvider(t *testing.T, cfg ProviderConfig, aliceCents int64) (*Provider, *store.Store, *store.MemBackend) {
	t.Helper()
	backend := store.NewMemBackend()
	st, err := store.Open(backend)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProvider(cfg)
	for acct, cents := range map[string]int64{"alice": aliceCents, "bob": 0} {
		if err := p.Ledger().CreateAccount(acct, cents); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	return p, st, backend
}

// A CAPTCHA is a challenge in the provider's one table, so it survives
// a restore like every other: a retransmitted answer replays its
// recorded outcome, a CAPTCHA issued before the crash is still
// redeemable, and a fresh CAPTCHA after it is a fresh nonce that
// executes its own order, never an earlier life's.
func TestFallbackChallengeSurvivesRestart(t *testing.T) {
	cfg := leanRestoreConfig(sim.NewVirtualClock())
	p, _, backend := durableFallbackProvider(t, cfg, 1_000_000)
	tx := func(id string) *Transaction {
		return &Transaction{ID: id, From: "alice", To: "bob", AmountCents: 1_000, Currency: "EUR"}
	}
	answered := requestFallback(t, p, tx("t1"))
	first := answerFallback(t, p, answered, answered.Text)
	if !first.Accepted || first.TxID != "t1" {
		t.Fatalf("fallback for t1 answered %+v", first)
	}
	open := requestFallback(t, p, tx("t3"))

	r, err := reopen(t, cfg, backend)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if again := answerFallback(t, r, answered, answered.Text); *again != *first {
		t.Fatalf("retransmitted answer after restore = %+v, want the recorded %+v", again, first)
	}
	if out := answerFallback(t, r, open, open.Text); !out.Accepted || out.TxID != "t3" {
		t.Fatalf("CAPTCHA issued before the crash answered %+v, want t3 executed", out)
	}
	fresh := requestFallback(t, r, tx("t2"))
	if out := answerFallback(t, r, fresh, fresh.Text); !out.Accepted || out.TxID != "t2" {
		t.Fatalf("fresh fallback for t2 answered %+v, want t2 executed", out)
	}
	seen := map[string]int{}
	for _, h := range r.Ledger().History() {
		seen[h.ID]++
	}
	if seen["t1"] != 1 || seen["t2"] != 1 || seen["t3"] != 1 || len(seen) != 3 {
		t.Fatalf("executed %v, want t1, t2 and t3 once each", seen)
	}
	if bal, err := r.Ledger().Balance("bob"); err != nil || bal != 3_000 {
		t.Fatalf("bob holds %d (%v), want 3000", bal, err)
	}

	// A wrong transcription counts as a failed CAPTCHA; an answer for a
	// nonce never issued is stale, like every other stale proof.
	before := r.Stats()
	wrong := requestFallback(t, r, tx("t4"))
	if out := answerFallback(t, r, wrong, "wrong"); out.Accepted || !out.Retryable || out.TxID != "t4" {
		t.Fatalf("wrong transcription answered %+v", out)
	}
	if out := answerFallback(t, r, &FallbackChallenge{Nonce: attest.Nonce{0xFA}}, "x"); out.Accepted || !out.Retryable {
		t.Fatalf("unknown CAPTCHA answered %+v", out)
	}
	after := r.Stats()
	if after.FallbackFailed != before.FallbackFailed+1 || after.RejectedStale != before.RejectedStale+1 {
		t.Fatalf("FallbackFailed %d -> %d, RejectedStale %d -> %d, want one more of each",
			before.FallbackFailed, after.FallbackFailed, before.RejectedStale, after.RejectedStale)
	}
}

// The pending record of a CAPTCHA holds its order beside the
// transcription. The largest order Validate accepts would take that
// record past the field bound, so the request refuses it and journals
// nothing; the largest order that fits makes a record of exactly the
// bound, restores from the WAL and executes.
func TestFallbackSizeBound(t *testing.T) {
	clock := sim.NewVirtualClock()
	cfg := leanRestoreConfig(clock)
	p, st, backend := durableFallbackProvider(t, cfg, 1<<40)

	largest := sizedTx("largest", 1000, maxTxSize)
	resp := mustDecode(t, mustHandle(t, p, &FallbackRequest{PlatformID: "platform-1", Failures: 3, Tx: largest}))
	if out, ok := resp.(*Outcome); !ok || out.Accepted || !strings.Contains(out.Reason, ErrInvalidTransaction.Error()) {
		t.Fatalf("fallback for the largest order answered %+v, want an invalid-transaction refusal", resp)
	}
	if n := st.Stats().Appends; n != 0 {
		t.Fatalf("refusal journaled %d WAL groups", n)
	}

	fits := sizedTx("fits", 1000, maxTxSize-captcha.TextLen)
	ch := requestFallback(t, p, fits)
	j := &journal{}
	j.challengeIssued(ch.Nonce, pendingChallenge{kind: pendingFallback, tx: fits, username: ch.Text, issuedAt: clock.Now()})
	if got := len(j.group()) - 5 - 4; got != cryptoutil.MaxFieldLen {
		t.Fatalf("pending record of the largest fallback order is %d bytes, want %d", got, cryptoutil.MaxFieldLen)
	}
	r, err := reopen(t, cfg, backend)
	if err != nil {
		t.Fatalf("restore from the WAL tail: %v", err)
	}
	if out := answerFallback(t, r, ch, ch.Text); !out.Accepted || out.TxID != "fits" {
		t.Fatalf("restored CAPTCHA answered %+v, want its order executed", out)
	}
}
