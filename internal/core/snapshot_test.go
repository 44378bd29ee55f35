package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"unitp/internal/attest"
	"unitp/internal/cryptoutil"
	"unitp/internal/sim"
	"unitp/internal/store"
)

// pinnedStateSHA256 is the SHA-256 of seededSnapshotProvider's
// encodeState output. The snapshot payload is a persisted format
// (version 3): a change to this constant means restored providers and
// followers bootstrapped from older snapshots would read different
// bytes, so it may only change together with the format version.
const pinnedStateSHA256 = "7b1271d34b8460051cbfd982db9e61f25357621df65fec9a45523d64c1ce6b08"

// legacyStates are seededSnapshotProvider's payloads as earlier
// encoders wrote them, each with its SHA-256. Version 1 carried the
// retired nonce cache (issued and spent nonces) after the
// answered-CAPTCHA section, which version 2 still carried; in both, the
// CAPTCHA was keyed by a per-life counter ID rather than a nonce.
var legacyStates = []struct{ version, file, sha256 string }{
	{"v1", "testdata/state-v1.bin", "7d6af7d50110b2a9d485773149b53cd8aeba152b1f803a26a4ba8cba39a026be"},
	{"v2", "testdata/state-v2.bin", "78af8bb60ad61f86543a0b6a82fc4a84636c3b04d55f4ae97610f059521302e3"},
}

// pinnedLegacyReencodeSHA256 is the SHA-256 of the version 3 payload
// every legacy state re-encodes to: its own state less the retired
// sections.
const pinnedLegacyReencodeSHA256 = "f25651f8c754b1a7d66afd47a48ff0a9837b25637132d21bd385173f58ddd2ee"

// encodeState returns the snapshot payload alone: encodeSnapshot's
// parts concatenated, without the space reserved for the store's
// envelope.
func (p *Provider) encodeState() []byte {
	var state []byte
	err := p.encodeSnapshot(func(frame []byte, more ...[]byte) error {
		state = append(state, frame[store.SnapshotHeaderLen:]...)
		for _, part := range more {
			state = append(state, part...)
		}
		return nil
	})
	if err != nil {
		panic(err) // the write above never fails
	}
	return state
}

// seededSnapshotProvider builds a provider that populates every
// snapshot section: accounts created out of name order, executed
// history, an audit chain with HMAC confirmations, an authenticated
// denial, a CAPTCHA downgrade and an open attested session's entries,
// pending challenges of four kinds, answered challenges (a wrongly
// answered CAPTCHA among them), a presence token, an HMAC key, a
// credential, a platform binding.
//
// Everything is driven through Handle except what needs a TPM quote:
// the pooled RSA keys are not byte-stable across processes, so the
// session's audit entries and the presence token are installed
// directly, with fixed bytes.
func seededSnapshotProvider(t testing.TB) *Provider {
	t.Helper()
	clock := sim.NewVirtualClock()
	p := NewProvider(ProviderConfig{
		Name: "pinned", Clock: clock, Random: sim.NewRand(0x5EED),
		ConfirmThresholdCents: 10_000,
	})
	for i, name := range []string{"zed", "alice", "carol", "acct-0003", "bob", "acct-0001", "dave", "acct-0002"} {
		if err := p.Ledger().CreateAccount(name, int64(100_000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.EnrollCredential("alice", "2468"); err != nil {
		t.Fatal(err)
	}
	if err := p.BindPlatform("carol", "platform-7"); err != nil {
		t.Fatal(err)
	}
	key := []byte("pinned-hmac-key-0123456789abcdef")
	p.mu.Lock()
	p.hmacKeys["platform-7"] = key
	p.presence["presence-00c0ffee"] = true
	p.mu.Unlock()

	tx := func(id, from, to string, cents int64) *Transaction {
		return &Transaction{ID: id, From: from, To: to, AmountCents: cents, Currency: "EUR", Memo: "pinned " + id}
	}
	challenge := func(tx *Transaction) attest.Nonce {
		t.Helper()
		resp := mustDecode(t, mustHandle(t, p, &SubmitTx{Tx: tx}))
		ch, ok := resp.(*Challenge)
		if !ok {
			t.Fatalf("submit %s answered %T, want a challenge", tx.ID, resp)
		}
		return ch.Nonce
	}
	confirm := func(tx *Transaction, yes bool) {
		t.Helper()
		nonce := challenge(tx)
		mac := cryptoutil.HMACSHA256(key, MACMessage(nonce, tx.Digest(), yes))
		resp := mustDecode(t, mustHandle(t, p, &ConfirmTx{
			Nonce: nonce, Confirmed: yes, Mode: ModeHMAC, PlatformID: "platform-7", MAC: mac,
		}))
		if o, ok := resp.(*Outcome); !ok || !o.Authentic || o.Accepted != yes {
			t.Fatalf("confirm %s answered %+v", tx.ID, resp)
		}
	}

	mustHandle(t, p, &SubmitTx{Tx: tx("pin-auto", "alice", "bob", 1_500)})
	confirm(tx("pin-hmac-1", "carol", "zed", 20_000), true)
	confirm(tx("pin-hmac-2", "alice", "acct-0001", 30_000), true)
	confirm(tx("pin-denied", "alice", "dave", 40_000), false)

	// An attested session's open and confirm entries.
	at := clock.Now()
	p.audit.Append(AuditEntry{
		Kind: AuditSessionOpen, At: at, Note: "session 7 for alice",
		Nonce: attest.Nonce{7}, Evidence: []byte("pinned-session-open-evidence"),
	})
	p.audit.Append(AuditEntry{
		Kind: AuditSessionConfirm, At: at, TxID: "pin-session",
		TxDigest: tx("pin-session", "alice", "bob", 12_000).Digest(), Confirmed: true, Nonce: attest.Nonce{8},
	})

	// A CAPTCHA fallback answered wrongly: a downgrade audit entry and a
	// cached (rejected) outcome.
	resp := mustDecode(t, mustHandle(t, p, &FallbackRequest{
		PlatformID: "platform-7", Reason: "pal launch failed", Failures: 3,
		Tx: tx("pin-fb", "alice", "carol", 4_000),
	}))
	fc, ok := resp.(*FallbackChallenge)
	if !ok {
		t.Fatalf("fallback request answered %T", resp)
	}
	mustHandle(t, p, &FallbackAnswer{Nonce: fc.Nonce, Response: "wrong"})

	// Challenges issued and never answered stay pending.
	challenge(tx("pin-pending", "alice", "acct-0002", 50_000))
	mustHandle(t, p, &SubmitBatch{Txs: []Transaction{
		*tx("pin-batch-1", "alice", "bob", 11_000), *tx("pin-batch-2", "alice", "zed", 12_000),
	}})
	mustHandle(t, p, &LoginRequest{Username: "alice"})
	mustHandle(t, p, &PresenceRequest{})
	if n := p.PendingChallenges(); n != 4 {
		t.Fatalf("pending challenges = %d, want 4", n)
	}
	return p
}

// mustHandle sends one encoded message straight to the provider.
func mustHandle(t testing.TB, p *Provider, msg any) []byte {
	t.Helper()
	data, err := EncodeMessage(msg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.Handle(data)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestEncodeStatePinnedBytes pins the snapshot payload of a provider
// whose every section is populated, so encoder changes are checked
// for byte identity rather than argued.
func TestEncodeStatePinnedBytes(t *testing.T) {
	state := seededSnapshotProvider(t).encodeState()
	sum := sha256.Sum256(state)
	if got := hex.EncodeToString(sum[:]); got != pinnedStateSHA256 {
		t.Fatalf("encodeState SHA-256 = %s (%d bytes), want %s", got, len(state), pinnedStateSHA256)
	}
}

// TestLoadStateLegacy restores each committed legacy payload of
// seededSnapshotProvider: it must hold the four pending challenges and
// re-encode to the pinned version 3 payload, so nothing but the retired
// sections is lost and a store written by an older encoder still opens.
func TestLoadStateLegacy(t *testing.T) {
	for _, legacy := range legacyStates {
		t.Run(legacy.version, func(t *testing.T) {
			data, err := os.ReadFile(legacy.file)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != legacy.sha256 {
				t.Fatalf("%s SHA-256 = %x, want %s", legacy.file, sum, legacy.sha256)
			}
			p := NewProvider(ProviderConfig{Name: "legacy"})
			if err := p.loadState(data); err != nil {
				t.Fatalf("payload refused: %v", err)
			}
			if n := p.PendingChallenges(); n != 4 {
				t.Fatalf("restored %d pending challenges, want 4", n)
			}
			state := p.encodeState()
			if sum := sha256.Sum256(state); hex.EncodeToString(sum[:]) != pinnedLegacyReencodeSHA256 {
				t.Fatalf("re-encoded SHA-256 = %x (%d bytes), want %s", sum, len(state), pinnedLegacyReencodeSHA256)
			}
		})
	}
}

// handBuiltState encodes a minimal snapshot payload by hand: the given
// accounts (in the order given) and every other section empty.
func handBuiltState(names ...string) []byte {
	b := cryptoutil.NewBuffer(64)
	b.PutUint8(providerSnapshotVersion)
	b.PutUint32(uint32(len(names)))
	for i, name := range names {
		b.PutString(name)
		b.PutUint64(uint64(100 * (i + 1)))
	}
	// History, audit, pending, answered, HMAC keys, presence tokens,
	// credentials, platform bindings: all empty.
	for i := 0; i < 8; i++ {
		b.PutUint32(0)
	}
	b.PutUint32(0) // stats fields
	return b.Bytes()
}

// TestLoadStateRejectsUnorderedAccounts checks a snapshot payload whose
// accounts are not in strictly ascending name order (out of order, or
// the same name twice) is refused with a decode error rather than
// restored: the payload also arrives over the wire in a follower
// bootstrap.
func TestLoadStateRejectsUnorderedAccounts(t *testing.T) {
	p := NewProvider(ProviderConfig{Name: "ok"})
	if err := p.loadState(handBuiltState("alice", "bob", "carol")); err != nil {
		t.Fatalf("ordered payload refused: %v", err)
	}
	if bal, err := p.Ledger().Balance("carol"); err != nil || bal != 300 {
		t.Fatalf("Balance(carol) = %d, %v", bal, err)
	}
	for name, state := range map[string][]byte{
		"out of order": handBuiltState("alice", "carol", "bob"),
		"duplicate":    handBuiltState("alice", "bob", "bob"),
		"first twice":  handBuiltState("alice", "alice"),
	} {
		p := NewProvider(ProviderConfig{Name: name})
		err := p.loadState(state)
		if err == nil || !strings.Contains(err.Error(), "out of order or duplicated") {
			t.Errorf("%s: loadState = %v, want an ordering error", name, err)
		}
	}
}

// FuzzLoadState feeds arbitrary payloads to the snapshot decoder: it
// must never panic, and a payload it accepts must re-encode to a
// fixed point of decode/encode.
func FuzzLoadState(f *testing.F) {
	for _, legacy := range legacyStates {
		data, err := os.ReadFile(legacy.file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(seededSnapshotProvider(f).encodeState())
	f.Add(NewProvider(ProviderConfig{Name: "empty"}).encodeState())
	f.Add(handBuiltState("alice", "bob"))
	f.Add(handBuiltState("bob", "alice"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewProvider(ProviderConfig{Name: "fuzz"})
		if err := p.loadState(data); err != nil {
			return
		}
		once := p.encodeState()
		q := NewProvider(ProviderConfig{Name: "fuzz-again"})
		if err := q.loadState(once); err != nil {
			t.Fatalf("re-encoded payload refused: %v", err)
		}
		if twice := q.encodeState(); !bytes.Equal(twice, once) {
			t.Fatal("decode/encode is not a fixed point")
		}
	})
}

// benchBank returns a provider holding a 100k-account bank with some
// executed history: the state a snapshot rotation writes out.
func benchBank(b *testing.B) *Provider {
	p := NewProvider(ProviderConfig{Name: "bench"})
	l := p.Ledger()
	const accounts = 100_000
	for i := 0; i < accounts; i++ {
		// Creation order is not name order, as with a bank loaded from
		// a map; the first encode sorts once.
		if err := l.CreateAccount(fmt.Sprintf("acct-%06d", (i*7919)%accounts), 1<<40); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 1024; i++ {
		tx := &Transaction{
			ID: fmt.Sprintf("bench-%d", i), From: fmt.Sprintf("acct-%06d", i), To: fmt.Sprintf("acct-%06d", i+1),
			AmountCents: 100, Currency: "EUR", Memo: "bench",
		}
		if err := l.Apply(tx); err != nil {
			b.Fatal(err)
		}
	}
	return p
}

// BenchmarkEncodeState measures encoding one snapshot of a 100k-account
// bank into the parts a rotation writes, without writing them.
func BenchmarkEncodeState(b *testing.B) {
	p := benchBank(b)
	size := 0
	measure := func(frame []byte, more ...[]byte) error {
		size = len(frame) - store.SnapshotHeaderLen
		for _, part := range more {
			size += len(part)
		}
		return nil
	}
	if err := p.encodeSnapshot(measure); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.encodeSnapshot(measure); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRotation measures one snapshot rotation of a
// 100k-account bank into a directory store: the encode, the write of
// each part, the fsync and the rename, which the commit loop pays every
// SnapshotEvery group commits.
func BenchmarkSnapshotRotation(b *testing.B) {
	p := benchBank(b)
	backend, err := store.OpenDir(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(backend)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := p.AttachStore(st); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SnapshotNow(); err != nil {
			b.Fatal(err)
		}
	}
}
