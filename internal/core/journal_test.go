package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

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
