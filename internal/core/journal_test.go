package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"unitp/internal/attest"
	"unitp/internal/cryptoutil"
	"unitp/internal/sim"
	"unitp/internal/store"
)

// pinnedJournalSHA256 pins the WAL group records of one submit and one
// session-mode confirmation (see TestJournalGroupPinnedBytes). WAL
// groups are a persisted format: replay and follower shipping read
// them, so a change here must come with a group version change.
var pinnedJournalSHA256 = [2]string{
	"000d85f8d8145d3f9d9f78afb46c75d66a2386f53c2e43c65aa8ad4cd721706b",
	"31f3834b4bd032f65aea67775b9b40032f079434338e0ca3c219cc55368fd604",
}

// TestJournalGroupPinnedBytes pins the WAL group bytes of a submit,
// which journals a challenge-issued record, and of the session-mode
// confirmation answering it, which journals nonce-redeemed,
// audit-appended, ledger-apply and outcome-cached records, so journal
// changes are checked for byte identity rather than argued.
func TestJournalGroupPinnedBytes(t *testing.T) {
	clock := sim.NewVirtualClock()
	p := NewProvider(ProviderConfig{
		Name: "pinned-journal", Clock: clock, Random: sim.NewRand(0x10A1),
		ConfirmThresholdCents: 10_000,
	})
	for _, name := range []string{"alice", "bob"} {
		if err := p.Ledger().CreateAccount(name, 1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(store.NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	var groups [][]byte
	p.SetCommitHook(func(batch [][]byte) error {
		groups = append(groups, batch...)
		return nil
	})

	// An attested session, installed directly: opening one needs a TPM
	// quote, whose pooled keys are not byte-stable across processes.
	key := []byte("pinned-session-key-0123456789abc")
	p.verifier.ApprovePAL("pinned-pal", cryptoutil.SHA1([]byte("pinned-pal")))
	const sid = 0x5E55
	p.sessMu.Lock()
	p.sessions[sid] = &attSession{key: key, account: "alice", platform: "platform-9", palName: "pinned-pal", openedAt: clock.Now()}
	p.sessMu.Unlock()

	tx := &Transaction{ID: "pin-journal", From: "alice", To: "bob", AmountCents: 25_000, Currency: "EUR", Memo: "pinned journal"}
	ch, ok := mustDecode(t, mustHandle(t, p, &SubmitTx{Tx: tx})).(*Challenge)
	if !ok {
		t.Fatal("submit was not challenged")
	}
	mac := cryptoutil.HMACSHA256(key, SessionMACMessage(ch.Nonce, tx.Digest(), true, sid, 1))
	resp := mustDecode(t, mustHandle(t, p, &ConfirmTxSession{
		Nonce: ch.Nonce, Confirmed: true, SessionID: sid, Counter: 1, MAC: mac,
	}))
	if o, ok := resp.(*Outcome); !ok || !o.Accepted {
		t.Fatalf("session confirm answered %+v", resp)
	}

	want := [][]recKind{
		{recChallengeIssued},
		{recNonceRedeemed, recAuditAppended, recLedgerApply, recOutcomeCached},
	}
	if len(groups) != len(want) {
		t.Fatalf("%d WAL groups, want %d", len(groups), len(want))
	}
	for i, g := range groups {
		if got := groupKinds(t, g); fmt.Sprint(got) != fmt.Sprint(want[i]) {
			t.Fatalf("group %d records %v, want %v", i, got, want[i])
		}
	}
	for i, g := range groups {
		sum := sha256.Sum256(g)
		if got := hex.EncodeToString(sum[:]); got != pinnedJournalSHA256[i] {
			t.Errorf("group %d SHA-256 = %s (%d bytes), want %s", i, got, len(g), pinnedJournalSHA256[i])
		}
	}
}

// groupKinds lists the record kinds of one WAL group.
func groupKinds(t *testing.T, group []byte) []recKind {
	t.Helper()
	r := cryptoutil.NewReader(group)
	if v := r.Uint8(); v != groupVersion {
		t.Fatalf("group version %d", v)
	}
	var kinds []recKind
	for i, n := 0, int(r.Uint32()); i < n; i++ {
		if rec := r.Field(); len(rec) > 0 {
			kinds = append(kinds, recKind(rec[0]))
		}
	}
	if err := r.ExpectEOF(); err != nil {
		t.Fatal(err)
	}
	return kinds
}

// replayTarget is the provider a fuzzed WAL group replays onto: the
// accounts a journaled transfer names, and nothing else.
func replayTarget() *Provider {
	p := NewProvider(ProviderConfig{Name: "replay", Clock: sim.NewVirtualClock()})
	for _, name := range []string{"alice", "bob"} {
		if err := p.Ledger().CreateAccount(name, 1_000_000); err != nil {
			panic(err)
		}
	}
	return p
}

// journalSeedGroups returns WAL groups holding every record kind: the
// two TestJournalGroupPinnedBytes pins (a submit's challenge-issued; a
// session confirmation's nonce-redeemed, audit-appended, ledger-apply
// and outcome-cached), then one group of every other kind.
func journalSeedGroups() [][]byte {
	at := time.Unix(1_700_000_000, 0)
	tx := &Transaction{ID: "seed", From: "alice", To: "bob", AmountCents: 25_000, Currency: "EUR", Memo: "seed"}
	nonce := attest.Nonce{1, 2, 3}
	outcome := &Outcome{TxID: tx.ID, Accepted: true, Authentic: true, Reason: "confirmed by user"}

	var submit, confirm, rest journal
	submit.challengeIssued(nonce, pendingChallenge{kind: pendingConfirm, tx: tx, issuedAt: at})
	confirm.nonceRedeemed(nonce)
	log := NewAuditLog()
	log.append(&AuditEntry{Kind: AuditConfirm, TxID: tx.ID, TxDigest: tx.Digest(), Confirmed: true, Nonce: nonce}, confirm.auditAppended)
	ledger := NewLedger()
	for _, name := range []string{"alice", "bob"} {
		if err := ledger.CreateAccount(name, 1_000_000); err != nil {
			panic(err)
		}
	}
	if err := ledger.apply(tx, confirm.ledgerApplied); err != nil {
		panic(err)
	}
	confirm.outcomeCached(nonce, at, outcome)
	rest.pendingDropped(attest.Nonce{4})
	rest.presenceTokenGranted("presence-seed")
	rest.hmacKeyInstalled("platform-seed", []byte("hmac-key"))
	rest.credentialEnrolled("alice", [32]byte{9})
	rest.platformBound("alice", "platform-seed")
	// A retired answered-CAPTCHA record, which replay reads and
	// discards.
	rest.emit(recFallbackOutcome, func(b *cryptoutil.Buffer) {
		b.PutUint64(77)
		putOutcomeField(b, outcome)
	})
	return [][]byte{submit.group(), confirm.group(), rest.group()}
}

// FuzzReplayGroup feeds arbitrary WAL groups to the replay path, which
// reads them from disk at recovery and over the wire in a follower
// bootstrap's records: it must never panic, a group it accepts must
// replay to the same state every time, and that state's snapshot must
// be a fixed point of decode/encode.
func FuzzReplayGroup(f *testing.F) {
	for _, g := range journalSeedGroups() {
		f.Add(g)
	}
	var counters journal
	counters.countersRecorded(&ProviderStats{Submitted: 3, Challenged: 2, Confirmed: 2, SessionsOpened: 1})
	f.Add(counters.group())
	f.Fuzz(func(t *testing.T, group []byte) {
		p := replayTarget()
		if err := p.replayGroup(group); err != nil {
			return
		}
		once := p.encodeState()
		again := replayTarget()
		if err := again.replayGroup(group); err != nil {
			t.Fatalf("second replay refused: %v", err)
		}
		if !bytes.Equal(again.encodeState(), once) {
			t.Fatal("replay is not deterministic")
		}
		q := NewProvider(ProviderConfig{Name: "replayed"})
		if err := q.loadState(once); err != nil {
			t.Fatalf("replayed state's snapshot refused: %v", err)
		}
		if !bytes.Equal(q.encodeState(), once) {
			t.Fatal("decode/encode of the replayed state is not a fixed point")
		}
	})
}
