package core

import (
	"strings"
	"testing"
	"time"

	"unitp/internal/attest"
	"unitp/internal/cryptoutil"
	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/sim"
)

// approveSessionPALs enrolls the session PAL identities with a
// provider's verifier (the open PAL is pinned per provider key).
func approveSessionPALs(p *Provider) {
	p.Verifier().ApprovePAL(SessionConfirmPALName, cryptoutil.SHA1(SessionConfirmPALImage()))
	p.Verifier().ApprovePAL(SessionOpenPALNameFor(p.PublicKeyDER()),
		cryptoutil.SHA1(SessionOpenPALImage(p.PublicKeyDER())))
}

// pressTimes arms the input pump to answer n prompts with the same key.
func (r *rig) pressTimes(key rune, n int) {
	left := n
	r.machine.SetInputPump(func() bool {
		if left == 0 {
			return false
		}
		left--
		r.clock.Sleep(900 * time.Millisecond)
		r.machine.Keyboard().Press(key)
		return true
	})
}

func TestSessionConfirmFlow(t *testing.T) {
	r := newRig(t, nil)
	if err := r.client.SetMode(ModeSession); err != nil {
		t.Fatal(err)
	}
	r.pressTimes('y', 3)
	for i, id := range []string{"s1", "s2", "s3"} {
		outcome, err := r.client.SubmitTransaction(payment(id, "bob", 1_000))
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		if !outcome.Accepted || !outcome.Authentic {
			t.Fatalf("tx %d outcome = %+v", i, outcome)
		}
	}
	if bal, _ := r.provider.Ledger().Balance("bob"); bal != 3_000 {
		t.Fatalf("bob = %d", bal)
	}
	st := r.provider.Stats()
	if st.SessionsOpened != 1 || st.SessionsConfirmed != 3 || st.Confirmed != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SessionDemotions != 0 {
		t.Fatalf("unexpected demotions: %+v", st)
	}
	if r.provider.LiveSessions() != 1 {
		t.Fatalf("live sessions = %d", r.provider.LiveSessions())
	}

	// The audit chain records which mode confirmed each entry: one
	// re-verifiable session-open anchor, then session-mode confirmations.
	var opens, confirms int
	for _, e := range r.provider.AuditLog().Entries() {
		switch e.Kind {
		case AuditSessionOpen:
			opens++
		case AuditSessionConfirm:
			confirms++
		}
	}
	if opens != 1 || confirms != 3 {
		t.Fatalf("audit kinds: opens=%d confirms=%d", opens, confirms)
	}
	rep, err := ReplayAudit(r.provider.AuditLog().Entries(), r.provider.Verifier())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionOpens != 1 || rep.SessionConfirms != 3 || rep.Reverified != 1 {
		t.Fatalf("audit report = %+v", rep)
	}
}

func TestSessionDenialIsAuthenticated(t *testing.T) {
	r := newRig(t, nil)
	if err := r.client.SetMode(ModeSession); err != nil {
		t.Fatal(err)
	}
	r.pressOnce('n')
	outcome, err := r.client.SubmitTransaction(payment("deny", "bob", 1_000))
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Accepted || !outcome.Authentic {
		t.Fatalf("outcome = %+v", outcome)
	}
	if bal, _ := r.provider.Ledger().Balance("bob"); bal != 0 {
		t.Fatalf("denied transaction moved money: bob = %d", bal)
	}
	// A denial advances the session counter on both sides; the next
	// confirmation must still authenticate.
	r.pressOnce('y')
	outcome, err = r.client.SubmitTransaction(payment("after-deny", "bob", 1_000))
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Accepted {
		t.Fatalf("post-denial outcome = %+v", outcome)
	}
	if st := r.provider.Stats(); st.SessionsOpened != 1 || st.SessionDemotions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSessionBudgetForcesRequote(t *testing.T) {
	r := newRig(t, nil)
	r.provider.sessMaxTx = 2
	if err := r.client.SetMode(ModeSession); err != nil {
		t.Fatal(err)
	}
	r.pressTimes('y', 3)
	for _, id := range []string{"b1", "b2", "b3"} {
		outcome, err := r.client.SubmitTransaction(payment(id, "bob", 1_000))
		if err != nil {
			t.Fatal(err)
		}
		if !outcome.Accepted {
			t.Fatalf("%s outcome = %+v", id, outcome)
		}
	}
	// The client re-quotes proactively at the budget, so the re-quote
	// interval N costs one extra session open, never a demotion round.
	st := r.provider.Stats()
	if st.SessionsOpened != 2 || st.SessionsConfirmed != 3 || st.SessionDemotions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSessionExpiryForcesRequote(t *testing.T) {
	r := newRig(t, nil)
	r.provider.sessMaxAge = time.Minute
	if err := r.client.SetMode(ModeSession); err != nil {
		t.Fatal(err)
	}
	r.pressOnce('y')
	if outcome, err := r.client.SubmitTransaction(payment("e1", "bob", 1_000)); err != nil || !outcome.Accepted {
		t.Fatalf("outcome = %+v, err = %v", outcome, err)
	}
	r.clock.Sleep(2 * time.Minute)
	// The expired session is refused (demoted) and the client recovers
	// with a full re-quote inside the same submission — the demoted
	// attempt and the re-quoted confirm each prompt the human once.
	r.pressTimes('y', 2)
	outcome, err := r.client.SubmitTransaction(payment("e2", "bob", 1_000))
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Accepted {
		t.Fatalf("post-expiry outcome = %+v", outcome)
	}
	st := r.provider.Stats()
	if st.SessionDemotions != 1 || st.SessionsOpened != 2 || st.Confirmed != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSessionGCSweepsExpired(t *testing.T) {
	r := newRig(t, nil)
	r.provider.sessMaxAge = time.Minute
	reg := obs.NewRegistry()
	r.provider.SetObservability(reg, nil)
	if err := r.client.SetMode(ModeSession); err != nil {
		t.Fatal(err)
	}
	r.pressOnce('y')
	if _, err := r.client.SubmitTransaction(payment("g1", "bob", 1_000)); err != nil {
		t.Fatal(err)
	}
	if r.provider.LiveSessions() != 1 {
		t.Fatalf("live = %d", r.provider.LiveSessions())
	}
	// Leave an unanswered challenge pending too, so the sweep has one of
	// each kind to expire and the split counters can be told apart.
	if _, err := r.client.roundTrip(&SubmitTx{Tx: payment("g2", "bob", 1_000)}); err != nil {
		t.Fatal(err)
	}
	// Past both clocks: the session max-age (1 min here) and the
	// challenge nonce TTL (5 min default).
	r.clock.Sleep(6 * time.Minute)
	r.provider.GC()
	if r.provider.LiveSessions() != 0 {
		t.Fatalf("expired session survived GC: live = %d", r.provider.LiveSessions())
	}
	st := r.provider.Stats()
	if st.ExpiredSessions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The GC split is observable: expired sessions and expired challenges
	// age under different policies and report on separate counters.
	if got := reg.Counter("provider.gc.expired_sessions").Value(); got != 1 {
		t.Fatalf("gc.expired_sessions = %d", got)
	}
	if got := reg.Counter("provider.gc.expired_challenges").Value(); got < 1 {
		t.Fatalf("gc.expired_challenges = %d", got)
	}
}

// TestSessionExpiryBoundary pins the off-by-one: a confirmation at
// exactly MaxAge is valid; one instant past it is expired. The check is
// exercised directly because wall time advances during a full protocol
// round trip.
func TestSessionExpiryBoundary(t *testing.T) {
	r := newRig(t, nil)
	opened := r.clock.Now()
	key := []byte("0123456789abcdef0123456789abcdef")
	sess := &attSession{
		key: key, account: "alice", openedAt: opened,
		palName: SessionOpenPALNameFor(r.provider.PublicKeyDER()),
	}
	tx := payment("edge", "bob", 1_000)
	pend := pendingChallenge{kind: pendingConfirm, tx: tx}
	m := &ConfirmTxSession{SessionID: 7, Counter: 1, Confirmed: true}
	m.MAC = cryptoutil.HMACSHA256(key,
		SessionMACMessage(m.Nonce, tx.Digest(), true, m.SessionID, m.Counter))

	atBoundary := opened.Add(r.provider.sessMaxAge)
	if reason, _ := r.provider.sessionCheckLocked(sess, m, tx.Digest(), pend, atBoundary); reason != "" {
		t.Fatalf("confirmation at exactly MaxAge rejected: %q", reason)
	}
	pastBoundary := atBoundary.Add(time.Nanosecond)
	reason, forged := r.provider.sessionCheckLocked(sess, m, tx.Digest(), pend, pastBoundary)
	if reason != "session expired" {
		t.Fatalf("reason = %q", reason)
	}
	if forged {
		t.Fatal("expiry misclassified as forgery")
	}
}

// TestSessionAdversarial drives forged and replayed session-mode
// confirmations straight at the wire: each violation demotes (or
// refuses) loudly, the transaction never executes, and the client's
// recovery — a full re-quote — succeeds afterwards.
func TestSessionAdversarial(t *testing.T) {
	cases := []struct {
		name string
		// craft builds the hostile confirmation for a fresh challenge,
		// given the live session's ID and provider-side key and the next
		// valid counter value.
		craft        func(nonce attest.Nonce, txDigest cryptoutil.Digest, sid uint64, key []byte, next uint64) *ConfirmTxSession
		wantReason   string
		wantDemoted  int // SessionDemotions delta
		wantForged   int // RejectedForged delta
		wantStale    int // RejectedStale delta
		wantLiveLeft int // sessions surviving the attack
	}{
		{
			name: "replayed counter",
			craft: func(nonce attest.Nonce, txDigest cryptoutil.Digest, sid uint64, key []byte, next uint64) *ConfirmTxSession {
				m := &ConfirmTxSession{SessionID: sid, Counter: next - 1, Confirmed: true}
				copy(m.Nonce[:], nonce[:])
				m.MAC = cryptoutil.HMACSHA256(key,
					SessionMACMessage(m.Nonce, txDigest, true, sid, m.Counter))
				return m
			},
			wantReason:  "counter not strictly increasing",
			wantDemoted: 1, wantForged: 1, wantLiveLeft: 0,
		},
		{
			name: "forged MAC",
			craft: func(nonce attest.Nonce, txDigest cryptoutil.Digest, sid uint64, key []byte, next uint64) *ConfirmTxSession {
				m := &ConfirmTxSession{SessionID: sid, Counter: next, Confirmed: true}
				copy(m.Nonce[:], nonce[:])
				m.MAC = cryptoutil.HMACSHA256([]byte("guessed key 0123456789abcdef0123"),
					SessionMACMessage(m.Nonce, txDigest, true, sid, m.Counter))
				return m
			},
			wantReason:  "MAC invalid",
			wantDemoted: 1, wantForged: 1, wantLiveLeft: 0,
		},
		{
			name: "decision flip",
			craft: func(nonce attest.Nonce, txDigest cryptoutil.Digest, sid uint64, key []byte, next uint64) *ConfirmTxSession {
				// MAC over the denial, message claims approval: the MAC
				// covers the decision bit, so the flip cannot verify.
				m := &ConfirmTxSession{SessionID: sid, Counter: next, Confirmed: true}
				copy(m.Nonce[:], nonce[:])
				m.MAC = cryptoutil.HMACSHA256(key,
					SessionMACMessage(m.Nonce, txDigest, false, sid, m.Counter))
				return m
			},
			wantReason:  "MAC invalid",
			wantDemoted: 1, wantForged: 1, wantLiveLeft: 0,
		},
		{
			name: "unknown session",
			craft: func(nonce attest.Nonce, txDigest cryptoutil.Digest, sid uint64, key []byte, next uint64) *ConfirmTxSession {
				m := &ConfirmTxSession{SessionID: sid ^ 0xDEAD, Counter: next, Confirmed: true}
				copy(m.Nonce[:], nonce[:])
				m.MAC = cryptoutil.HMACSHA256(key,
					SessionMACMessage(m.Nonce, txDigest, true, sid^0xDEAD, m.Counter))
				return m
			},
			wantReason: "unknown or expired session",
			wantStale:  1, wantLiveLeft: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, nil)
			if err := r.client.SetMode(ModeSession); err != nil {
				t.Fatal(err)
			}
			// Establish the session and burn counter 1 legitimately.
			r.pressOnce('y')
			if outcome, err := r.client.SubmitTransaction(payment("setup", "bob", 1_000)); err != nil || !outcome.Accepted {
				t.Fatalf("setup outcome = %+v, err = %v", outcome, err)
			}
			sid, _ := r.client.Session()
			r.provider.sessMu.Lock()
			key := append([]byte{}, r.provider.sessions[sid].key...)
			counter := r.provider.sessions[sid].counter
			r.provider.sessMu.Unlock()

			// Fresh challenge for the attack.
			resp, err := r.client.roundTrip(&SubmitTx{Tx: payment("attack", "mallory", 9_000)})
			if err != nil {
				t.Fatal(err)
			}
			ch, ok := resp.(*Challenge)
			if !ok {
				t.Fatalf("response = %T", resp)
			}
			before := r.provider.Stats()
			m := tc.craft(ch.Nonce, ch.Tx.Digest(), sid, key, counter+1)
			resp, err = r.client.roundTrip(m)
			if err != nil {
				t.Fatal(err)
			}
			outcome, ok := resp.(*Outcome)
			if !ok {
				t.Fatalf("response = %T", resp)
			}
			if outcome.Accepted {
				t.Fatalf("%s accepted: %+v", tc.name, outcome)
			}
			if !outcome.Retryable {
				t.Fatalf("rejection not retryable: %+v", outcome)
			}
			if !strings.Contains(outcome.Reason, tc.wantReason) {
				t.Fatalf("reason = %q, want substring %q", outcome.Reason, tc.wantReason)
			}
			if bal, _ := r.provider.Ledger().Balance("mallory"); bal != 0 {
				t.Fatalf("attack moved money: mallory = %d", bal)
			}
			st := r.provider.Stats()
			if d := st.SessionDemotions - before.SessionDemotions; d != tc.wantDemoted {
				t.Fatalf("demotions delta = %d, want %d", d, tc.wantDemoted)
			}
			if d := st.RejectedForged - before.RejectedForged; d != tc.wantForged {
				t.Fatalf("forged delta = %d, want %d", d, tc.wantForged)
			}
			if d := st.RejectedStale - before.RejectedStale; d != tc.wantStale {
				t.Fatalf("stale delta = %d, want %d", d, tc.wantStale)
			}
			if live := r.provider.LiveSessions(); live != tc.wantLiveLeft {
				t.Fatalf("live sessions = %d, want %d", live, tc.wantLiveLeft)
			}

			// Recovery: the client's next submission succeeds — via a
			// fresh full-quote session open when the attack demoted it
			// (the stale-session attempt and the re-quoted confirm each
			// prompt once).
			r.pressTimes('y', 2)
			outcome, err = r.client.SubmitTransaction(payment("recover", "bob", 1_000))
			if err != nil {
				t.Fatal(err)
			}
			if !outcome.Accepted || !outcome.Authentic {
				t.Fatalf("recovery outcome = %+v", outcome)
			}
		})
	}
}

// TestSessionRefusedAcrossFailover models a provider failover: sessions
// are deliberately not journaled, so a session opened on one instance is
// refused by its replacement and the client re-quotes in full.
func TestSessionRefusedAcrossFailover(t *testing.T) {
	r := newRig(t, nil)
	if err := r.client.SetMode(ModeSession); err != nil {
		t.Fatal(err)
	}
	r.pressOnce('y')
	if outcome, err := r.client.SubmitTransaction(payment("f1", "bob", 1_000)); err != nil || !outcome.Accepted {
		t.Fatalf("outcome = %+v, err = %v", outcome, err)
	}

	// Stand up the failover target: same provider identity (key, CA,
	// accounts, policy) but a fresh process — and an empty session table.
	standby := NewProvider(ProviderConfig{
		Name:   "test-bank-standby",
		CAPub:  r.ca.PublicKey(),
		Key:    r.provider.key,
		Clock:  r.clock,
		Random: sim.NewRand(0xFA11).Fork("standby"),
	})
	standby.Verifier().ApprovePAL(ConfirmPALName, cryptoutil.SHA1(ConfirmPALImage()))
	approveSessionPALs(standby)
	if err := standby.Ledger().CreateAccount("alice", 100_000); err != nil {
		t.Fatal(err)
	}
	if err := standby.Ledger().CreateAccount("bob", 0); err != nil {
		t.Fatal(err)
	}
	r.client.transport = netsim.NewPipe(netsim.Config{
		Clock:  r.clock,
		Random: sim.NewRand(0xFA11).Fork("net"),
		Link:   netsim.LinkBroadband(),
	}, standby.Handle)

	// The client still holds the old session; the standby refuses it and
	// the retry re-quotes, opening a fresh session on the new instance.
	r.pressTimes('y', 2)
	outcome, err := r.client.SubmitTransaction(payment("f2", "bob", 1_000))
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Accepted || !outcome.Authentic {
		t.Fatalf("post-failover outcome = %+v", outcome)
	}
	st := standby.Stats()
	if st.RejectedStale != 1 || st.SessionsOpened != 1 || st.SessionsConfirmed != 1 {
		t.Fatalf("standby stats = %+v", st)
	}
	if bal, _ := standby.Ledger().Balance("bob"); bal != 1_000 {
		t.Fatalf("standby bob = %d", bal)
	}
	// Exactly-once across the boundary: the first instance executed f1,
	// the standby executed only f2.
	if bal, _ := r.provider.Ledger().Balance("bob"); bal != 1_000 {
		t.Fatalf("original bob = %d", bal)
	}
}

// TestSessionPALRevocationDemotes covers the PCR-profile change rule: a
// session whose PAL is revoked from the approved set is demoted on its
// next confirmation even though the MAC is valid.
func TestSessionPALRevocationDemotes(t *testing.T) {
	r := newRig(t, nil)
	if err := r.client.SetMode(ModeSession); err != nil {
		t.Fatal(err)
	}
	r.pressOnce('y')
	if outcome, err := r.client.SubmitTransaction(payment("p1", "bob", 1_000)); err != nil || !outcome.Accepted {
		t.Fatalf("outcome = %+v, err = %v", outcome, err)
	}
	r.provider.Verifier().RevokePAL(SessionOpenPALNameFor(r.provider.PublicKeyDER()))

	resp, err := r.client.roundTrip(&SubmitTx{Tx: payment("p2", "bob", 1_000)})
	if err != nil {
		t.Fatal(err)
	}
	ch := resp.(*Challenge)
	sid, _ := r.client.Session()
	r.provider.sessMu.Lock()
	key := append([]byte{}, r.provider.sessions[sid].key...)
	counter := r.provider.sessions[sid].counter
	r.provider.sessMu.Unlock()
	m := &ConfirmTxSession{Nonce: ch.Nonce, SessionID: sid, Counter: counter + 1, Confirmed: true}
	m.MAC = cryptoutil.HMACSHA256(key,
		SessionMACMessage(m.Nonce, ch.Tx.Digest(), true, sid, m.Counter))
	resp, err = r.client.roundTrip(m)
	if err != nil {
		t.Fatal(err)
	}
	outcome := resp.(*Outcome)
	if outcome.Accepted {
		t.Fatal("revoked-PAL session confirmed")
	}
	if !strings.Contains(outcome.Reason, "PAL no longer approved") {
		t.Fatalf("reason = %q", outcome.Reason)
	}
	if st := r.provider.Stats(); st.SessionDemotions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCertCacheCountersSurfaceInRegistry asserts the verifier's
// certificate-cache effectiveness is mirrored into the obs registry:
// the first quote from a platform pays the cert check (miss), repeats
// of the same cert bytes skip it (hits).
func TestCertCacheCountersSurfaceInRegistry(t *testing.T) {
	r := newRig(t, nil)
	reg := obs.NewRegistry()
	r.provider.SetObservability(reg, nil)
	r.pressTimes('y', 2)
	for _, id := range []string{"c1", "c2"} {
		if outcome, err := r.client.SubmitTransaction(payment(id, "bob", 1_000)); err != nil || !outcome.Accepted {
			t.Fatalf("outcome = %+v, err = %v", outcome, err)
		}
	}
	hits, misses := r.provider.Verifier().CertCacheStats()
	if misses != 1 {
		t.Fatalf("cert cache misses = %d, want 1", misses)
	}
	if hits < 1 {
		t.Fatalf("cert cache hits = %d, want >= 1", hits)
	}
	if got := reg.Counter("attest.cert_cache_misses").Value(); got != int64(misses) {
		t.Fatalf("registry misses = %d, verifier = %d", got, misses)
	}
	if got := reg.Counter("attest.cert_cache_hits").Value(); got != int64(hits) {
		t.Fatalf("registry hits = %d, verifier = %d", got, hits)
	}
}

// TestRegistryCountersMatchStats checks the registry's provider.challenged
// and provider.submitted count what Stats counts across every
// challenge-issuing flow: a submit, a batch, a login and a session open.
func TestRegistryCountersMatchStats(t *testing.T) {
	p := newRigProvider(t, sim.NewVirtualClock(), nil)
	reg := obs.NewRegistry()
	p.SetObservability(reg, nil)
	tx := func(id string) Transaction {
		return Transaction{ID: id, From: "alice", To: "bob", AmountCents: 1_000, Currency: "EUR"}
	}
	one := tx("reg-1")
	for _, msg := range []any{
		&SubmitTx{Tx: &one},
		&SubmitBatch{Txs: []Transaction{tx("reg-b1"), tx("reg-b2")}},
		&LoginRequest{Username: "alice"},
		&SessionOpen{PlatformID: "client-platform", Account: "alice"},
	} {
		mustHandle(t, p, msg)
	}
	st := p.Stats()
	if st.Challenged != 4 || st.Submitted != 3 {
		t.Fatalf("stats: %d challenged, %d submitted; want 4 and 3", st.Challenged, st.Submitted)
	}
	if got := reg.Counter("provider.challenged").Value(); got != int64(st.Challenged) {
		t.Errorf("provider.challenged = %d, Stats().Challenged = %d", got, st.Challenged)
	}
	if got := reg.Counter("provider.submitted").Value(); got != int64(st.Submitted) {
		t.Errorf("provider.submitted = %d, Stats().Submitted = %d", got, st.Submitted)
	}
}
