package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"unitp/internal/attest"
	"unitp/internal/cryptoutil"
	"unitp/internal/faults"
	"unitp/internal/netsim"
	"unitp/internal/sim"
	"unitp/internal/store"
)

// durableRig extends rig with a crash-hooked in-memory store and the
// machinery to restart the provider after an injected crash. The
// client's transport dispatches through an indirection, so a restored
// provider transparently replaces the dead one — the same "server
// address" across restarts, as a client would see it.
type durableRig struct {
	*rig
	backend   *store.MemBackend
	plan      *faults.CrashPlan
	tear      func(name string, pending []byte) []byte
	snapEvery int
	lives     int

	// rotations counts the cadence-triggered rotations completed, and
	// rotationCrashes the crashes injected into one (see hook).
	rotations, rotationCrashes int
}

// rigFillerAccounts spreads the rig's payments over a few more
// accounts. Few, so the snapshot stays small: the WAL outgrows it
// within a handful of payments, and the crash tests reach
// cadence-triggered rotations.
const rigFillerAccounts = 16

func newDurableRig(t *testing.T, snapEvery int, plan *faults.CrashPlan, tear func(string, []byte) []byte) *durableRig {
	t.Helper()
	r := newRig(t, nil)
	d := &durableRig{
		rig:       r,
		backend:   store.NewMemBackend(),
		plan:      plan,
		tear:      tear,
		snapEvery: snapEvery,
	}
	r.provider.snapEvery = snapEvery
	for i := 0; i < rigFillerAccounts; i++ {
		if err := r.provider.Ledger().CreateAccount(fmt.Sprintf("filler-%03d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(d.backend)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.provider.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	// Hook the crash plan only after the initial snapshot: setup is not
	// part of the modelled workload.
	d.backend.SetCrashHook(d.hook())
	r.client.transport = netsim.NewPipe(netsim.Config{
		Clock:  r.clock,
		Random: sim.NewRand(0xD1A1),
		Link:   netsim.LinkBroadband(),
	}, func(req []byte) ([]byte, error) { return d.provider.Handle(req) })
	return d
}

// restart models the full power-loss sequence: the in-memory provider
// is gone, the disk is torn per the recovery policy, and a fresh
// provider is rebuilt from the store with config (keys, PAL approvals)
// re-applied exactly as at first construction. The plan is disarmed for
// the duration so recovery cannot crash recursively.
func (d *durableRig) restart(t *testing.T) {
	t.Helper()
	d.lives++
	d.plan.Disarm()
	d.backend.SetCrashHook(nil)
	d.backend.Recover(d.tear)
	st, err := store.Open(d.backend)
	if err != nil {
		t.Fatalf("life %d: reopen store: %v", d.lives, err)
	}
	p, err := RestoreProvider(ProviderConfig{
		Name:          "test-bank",
		CAPub:         d.ca.PublicKey(),
		Key:           d.provider.key, // the key the rig's provider was built with
		Clock:         d.clock,
		Random:        sim.NewRand(0x11FE).Fork(fmt.Sprintf("life-%d", d.lives)),
		SnapshotEvery: d.snapEvery,
	}, st)
	if err != nil {
		t.Fatalf("life %d: restore provider: %v", d.lives, err)
	}
	p.Verifier().ApprovePAL(ConfirmPALName, cryptoutil.SHA1(ConfirmPALImage()))
	p.Verifier().ApprovePAL(PresencePALName, cryptoutil.SHA1(PresencePALImage()))
	p.Verifier().ApprovePAL(ProvisionPALName,
		cryptoutil.SHA1(ProvisionPALImage(p.PublicKeyDER())))
	p.Verifier().ApprovePAL(PINPALName, cryptoutil.SHA1(PINPALImage()))
	p.Verifier().ApprovePAL(BatchPALName, cryptoutil.SHA1(BatchPALImage()))
	d.rig.provider = p
	d.backend.SetCrashHook(d.hook())
	d.plan.Arm()
}

// hook is the crash plan's hook for a provider's life, counting the
// rotations it completes and the crashes injected into one. It is set
// after the life's first snapshot and nothing in the workload calls
// SnapshotNow, so every rotation it sees is a cadence-triggered one.
func (d *durableRig) hook() store.CrashHook {
	return func(ev store.CrashEvent) bool {
		crash := d.plan.Hook(ev)
		rotating := ev.Op == store.OpCreate || ev.Op == store.OpRename || ev.Op == store.OpRemove ||
			strings.HasSuffix(ev.Name, ".tmp")
		if rotating {
			if crash {
				d.rotationCrashes++
			} else if ev.Op == store.OpRename && ev.Phase == store.PhaseAfter {
				d.rotations++
			}
		}
		return crash
	}
}

// driveCrashWorkload pushes numTx payments of 1000 cents each through
// the trusted path, restarting the provider whenever a crash kills a
// session, until every transaction reports accepted.
func driveCrashWorkload(t *testing.T, d *durableRig, numTx, maxAttempts int) {
	t.Helper()
	d.alwaysApprove()
	for i := 0; i < numTx; i++ {
		tx := payment(fmt.Sprintf("crash-tx-%d", i), "bob", 1_000)
		for attempt := 0; ; attempt++ {
			if attempt >= maxAttempts {
				t.Fatalf("tx %d: no progress after %d attempts", i, attempt)
			}
			outcome, err := d.client.SubmitTransaction(tx)
			if err != nil {
				// The session died mid-flight — power-cycle the provider
				// and retry the same order (same ID: the idempotence key).
				d.restart(t)
				continue
			}
			if !outcome.Accepted {
				t.Fatalf("tx %d attempt %d: outcome = %+v", i, attempt, outcome)
			}
			break
		}
	}
}

// assertRecoveryInvariants restarts once more and checks every durable
// invariant the paper's provider depends on: exactly-once execution,
// restored state identical to the live state it replaced, a verifying
// audit chain (structural and full auditor replay), and a challenge
// table identical to the live one.
func assertRecoveryInvariants(t *testing.T, d *durableRig, wantBob int64) {
	t.Helper()
	live := d.provider
	liveBalances, liveHistory := balancesOf(live.ledger), live.ledger.History()
	liveHead := live.audit.Head()

	d.restart(t)
	p := d.provider

	balances, history := balancesOf(p.ledger), p.ledger.History()
	if balances["bob"] != wantBob {
		t.Fatalf("bob = %d, want %d (lost or double-applied transfers)", balances["bob"], wantBob)
	}
	if balances["alice"] != 100_000-wantBob {
		t.Fatalf("alice = %d, want %d", balances["alice"], 100_000-wantBob)
	}
	seen := map[string]bool{}
	for i := range history {
		if seen[history[i].ID] {
			t.Fatalf("duplicate ledger apply: %s", history[i].ID)
		}
		seen[history[i].ID] = true
	}

	// The store must reproduce the live provider it replaced, exactly.
	if len(history) != len(liveHistory) {
		t.Fatalf("restored history %d entries, live had %d", len(history), len(liveHistory))
	}
	for name, v := range liveBalances {
		if balances[name] != v {
			t.Fatalf("restored balance %s = %d, live had %d", name, balances[name], v)
		}
	}
	if p.audit.Head() != liveHead {
		t.Fatal("audit chain head diverged across restart")
	}

	entries := p.audit.Entries()
	if err := VerifyAuditChain(entries); err != nil {
		t.Fatalf("audit chain: %v", err)
	}
	report, err := ReplayAudit(entries, p.Verifier())
	if err != nil {
		t.Fatalf("auditor replay over restored log: %v", err)
	}
	if report.Entries != len(entries) {
		t.Fatalf("auditor replay covered %d of %d entries", report.Entries, len(entries))
	}

	// The challenge table is the only record of an issued nonce, so it
	// must come back exactly: a pending nonce lost would refuse a live
	// proof, an answered one lost or changed would let a retransmitted
	// proof be redeemed twice or answered differently.
	livePending, liveAnswered := challengeTable(live)
	pending, answered := challengeTable(p)
	if len(pending) != len(livePending) {
		t.Fatalf("restored %d pending challenges, live had %d", len(pending), len(livePending))
	}
	for n := range livePending {
		if !pending[n] {
			t.Fatalf("pending nonce %x lost across restart", n)
		}
	}
	if len(answered) != len(liveAnswered) {
		t.Fatalf("restored %d answered challenges, live had %d", len(answered), len(liveAnswered))
	}
	for n, a := range liveAnswered {
		got, ok := answered[n]
		if !ok || !got.at.Equal(a.at) || !reflect.DeepEqual(got.outcome, a.outcome) {
			t.Fatalf("answered nonce %x: restored %+v (held %v), live %+v", n, got, ok, a)
		}
	}
}

// challengeTable collects a provider's pending nonces and answered
// challenges across its stripes.
func challengeTable(p *Provider) (map[attest.Nonce]bool, map[attest.Nonce]answeredChallenge) {
	pending, answered := map[attest.Nonce]bool{}, map[attest.Nonce]answeredChallenge{}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for n := range sh.pending {
			pending[n] = true
		}
		for n, a := range sh.answered {
			answered[n] = a
		}
		sh.mu.Unlock()
	}
	return pending, answered
}

// TestCrashPointSweepInvariants schedules exactly one crash at every
// injectable crash point, across snapshot intervals, and checks the
// recovery invariants hold after the workload completes. snapEvery 0
// exercises pure WAL-tail replay (no rotation ever runs while armed, so
// mid-snapshot is skipped there).
func TestCrashPointSweepInvariants(t *testing.T) {
	rotations, rotationCrashes := 0, 0
	for _, point := range faults.CrashPoints() {
		for _, snapEvery := range []int{0, 1, 3} {
			if point == faults.CrashMidSnapshot && snapEvery == 0 {
				continue
			}
			point, snapEvery := point, snapEvery
			t.Run(fmt.Sprintf("%v-snap%d", point, snapEvery), func(t *testing.T) {
				plan := faults.NewCrashPlan(sim.NewRand(0xABC), faults.CrashRates{}).
					ScheduleCrash(point, 1)
				tear := faults.RecoveryPolicy{TornWrite: true, TrailingGarbage: true}.
					Tear(sim.NewRand(0x7EA1))
				d := newDurableRig(t, snapEvery, plan, tear)
				driveCrashWorkload(t, d, 5, 8)
				if d.plan.Stats().Total() == 0 {
					t.Fatal("scheduled crash never fired; sweep tested nothing")
				}
				assertRecoveryInvariants(t, d, 5*1_000)
				rotations, rotationCrashes = rotations+d.rotations, rotationCrashes+d.rotationCrashes
			})
		}
	}
	if rotations == 0 || rotationCrashes == 0 {
		t.Fatalf("sweep completed %d cadence-triggered rotations and crashed %d: rotation recovery untested",
			rotations, rotationCrashes)
	}
}

// TestCrashStormInvariants drives a longer workload under probabilistic
// crashes at every point simultaneously, with torn writes and trailing
// garbage on every recovery — the multi-crash interaction test. A
// restore rotates, so a life must outgrow the whole state before its
// cadence rotates; crashes that come often keep most lives shorter than
// that. Several seeded storms together cover cadence-triggered
// rotations and crashes inside them.
func TestCrashStormInvariants(t *testing.T) {
	rotations, rotationCrashes := 0, 0
	for i := 0; i < 8; i++ {
		t.Run(fmt.Sprintf("storm-%d", i), func(t *testing.T) {
			root := sim.NewRand(0x57A6).Fork(fmt.Sprintf("storm-%d", i))
			plan := faults.NewCrashPlan(root.Fork("crash"), faults.UniformCrash(0.03))
			tear := faults.RecoveryPolicy{TornWrite: true, TrailingGarbage: true}.Tear(root.Fork("tear"))
			d := newDurableRig(t, 4, plan, tear)
			driveCrashWorkload(t, d, 12, 40)
			if plan.Stats().Total() == 0 {
				t.Fatal("storm injected no crashes; raise the rate")
			}
			assertRecoveryInvariants(t, d, 12*1_000)
			rotations, rotationCrashes = rotations+d.rotations, rotationCrashes+d.rotationCrashes
		})
	}
	if rotations == 0 || rotationCrashes == 0 {
		t.Fatalf("storms completed %d cadence-triggered rotations and crashed %d: rotation recovery untested",
			rotations, rotationCrashes)
	}
}

// TestRetransmissionStraddlesCrash captures a raw ConfirmTx frame,
// power-cycles the provider after the confirmation committed, and
// replays the frame against the restored provider: the idempotent-
// replay cache must answer from the WAL-recovered state without
// executing the transaction twice.
func TestRetransmissionStraddlesCrash(t *testing.T) {
	plan := faults.NewCrashPlan(sim.NewRand(1), faults.CrashRates{})
	d := newDurableRig(t, 0, plan, faults.RecoveryPolicy{}.Tear(sim.NewRand(2)))

	var confirmFrame []byte
	d.os.AddInterceptor(func(p []byte) []byte {
		if msg, err := DecodeMessage(p); err == nil {
			if _, ok := msg.(*ConfirmTx); ok {
				confirmFrame = append([]byte(nil), p...)
			}
		}
		return p
	})
	d.pressOnce('y')
	outcome, err := d.client.SubmitTransaction(payment("straddle", "bob", 5_000))
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Accepted {
		t.Fatalf("setup outcome = %+v", outcome)
	}
	if confirmFrame == nil {
		t.Fatal("no confirmation frame captured")
	}

	// Power loss after the response left: everything committed is
	// durable, the in-memory provider is gone.
	d.restart(t)

	respBytes, err := d.provider.Handle(confirmFrame)
	if err != nil {
		t.Fatal(err)
	}
	resp := mustDecode(t, respBytes).(*Outcome)
	if !resp.Accepted {
		t.Fatalf("cached outcome lost across the crash: %+v", resp)
	}
	if bal, _ := d.provider.Ledger().Balance("bob"); bal != 5_000 {
		t.Fatalf("straddling retransmission double-spent: bob = %d", bal)
	}
}

// TestOutOfBandMutationsSurviveCrash checks that BindPlatform and
// EnrollCredential — durable mutations outside the request path — come
// back after a restart.
func TestOutOfBandMutationsSurviveCrash(t *testing.T) {
	plan := faults.NewCrashPlan(sim.NewRand(3), faults.CrashRates{})
	d := newDurableRig(t, 0, plan, faults.RecoveryPolicy{}.Tear(sim.NewRand(4)))

	if err := d.provider.BindPlatform("alice", "client-platform"); err != nil {
		t.Fatal(err)
	}
	if err := d.provider.EnrollCredential("carol", "1357"); err != nil {
		t.Fatal(err)
	}
	d.restart(t)
	if got := d.provider.boundPlatform("alice"); got != "client-platform" {
		t.Fatalf("binding lost: %q", got)
	}
	// Re-enrolling must now collide with the restored credential.
	if err := d.provider.EnrollCredential("carol", "0000"); err == nil {
		t.Fatal("restored provider forgot carol's credential")
	}
}

func TestAuditEntryRoundTripTamper(t *testing.T) {
	log := NewAuditLog()
	var nonce attest.Nonce
	for i := range nonce {
		nonce[i] = byte(i + 1)
	}
	entry := log.Append(AuditEntry{
		Kind:      AuditConfirm,
		Note:      "round-trip",
		At:        time.Unix(0, 1_234_567_890),
		TxID:      "tx-rt",
		TxDigest:  cryptoutil.SHA1([]byte("canonical tx bytes")),
		Confirmed: true,
		Nonce:     nonce,
		Evidence:  []byte("opaque evidence blob"),
	})
	data := entry.Marshal()
	got, err := UnmarshalAuditEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != entry.Seq || got.Kind != entry.Kind || got.Note != entry.Note ||
		!got.At.Equal(entry.At) || got.TxID != entry.TxID || got.TxDigest != entry.TxDigest ||
		got.Confirmed != entry.Confirmed || got.Nonce != entry.Nonce ||
		!bytes.Equal(got.Evidence, entry.Evidence) ||
		got.PrevChain != entry.PrevChain || got.Chain != entry.Chain {
		t.Fatalf("round trip changed the entry:\n got %+v\nwant %+v", got, entry)
	}
	if !bytes.Equal(got.Marshal(), data) {
		t.Fatal("re-marshal differs from original encoding")
	}

	// Flip every single bit: the mutation must be caught either at
	// decode or by the chain check on restore — never silently accepted.
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			g, err := UnmarshalAuditEntry(mut)
			if err != nil {
				continue
			}
			fresh := NewAuditLog()
			if fresh.Restore(*g) == nil {
				t.Fatalf("bit flip at byte %d bit %d survived chain verification", i, bit)
			}
		}
	}
}

func TestTransactionRoundTripTamper(t *testing.T) {
	tx := &Transaction{
		ID: "tx-rt", From: "alice", To: "bob",
		AmountCents: 123_456, Currency: "EUR", Memo: "invoice 42",
	}
	data := tx.Marshal()
	got, err := UnmarshalTransaction(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *tx {
		t.Fatalf("round trip changed the transaction: %+v", got)
	}
	if got.Digest() != tx.Digest() {
		t.Fatal("round trip changed the digest")
	}
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			g, err := UnmarshalTransaction(mut)
			if err != nil {
				continue
			}
			if g.Digest() == tx.Digest() {
				t.Fatalf("bit flip at byte %d bit %d invisible to the digest", i, bit)
			}
		}
	}
}

func TestOutcomeRoundTrip(t *testing.T) {
	o := &Outcome{
		Accepted: true, Authentic: true, Reason: "confirmed by user",
		TxID: "tx-9", Token: "session-00ff", Retryable: false,
	}
	data, err := EncodeMessage(o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshalOutcome(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *o {
		t.Fatalf("outcome round trip: got %+v, want %+v", got, o)
	}
}

// TestProviderSnapshotRoundTrip checks encodeState/loadState is a fixed
// point: a provider restored from a snapshot re-encodes to the exact
// same bytes (the determinism WriteSnapshot and the sweep rely on).
func TestProviderSnapshotRoundTrip(t *testing.T) {
	r := newRig(t, nil)
	r.pressOnce('y')
	if _, err := r.client.SubmitTransaction(payment("snap-rt", "bob", 2_000)); err != nil {
		t.Fatal(err)
	}
	state := r.provider.encodeState()

	p2 := NewProvider(ProviderConfig{Name: "clone", Clock: r.clock})
	if err := p2.loadState(state); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p2.encodeState(), state) {
		t.Fatal("snapshot round trip is not a fixed point")
	}
	if bal, _ := p2.Ledger().Balance("bob"); bal != 2_000 {
		t.Fatalf("restored bob = %d", bal)
	}
	if p2.audit.Head() != r.provider.audit.Head() {
		t.Fatal("restored audit head differs")
	}
}
