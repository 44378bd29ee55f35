package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"unitp/internal/attest"
	"unitp/internal/faults"
	"unitp/internal/sim"
)

// These tests pin the provider's challenge-lifetime behavior under a
// virtual clock: expiry is enforced at redemption time (a proof, or a
// retransmitted one, that arrives after the TTL is rejected even before
// any GC pass), the opportunistic GC bounds pending state at a cadence
// gated on both issuance count and elapsed time, and a confirmation
// arriving after its challenge was collected gets a clean, retryable
// rejection.

func TestConfirmAfterTTLRejectedBeforeGC(t *testing.T) {
	r := newRig(t, nil)
	resp, err := r.client.roundTrip(&SubmitTx{Tx: payment("tx-slow", "bob", 5_000)})
	if err != nil {
		t.Fatal(err)
	}
	ch, ok := resp.(*Challenge)
	if !ok {
		t.Fatalf("response = %T", resp)
	}

	// The client dawdles past the 5-minute nonce TTL. No GC has run:
	// the challenge is still in the pending map, but redeeming it must
	// fail anyway.
	r.clock.Sleep(6 * time.Minute)
	if got := r.provider.PendingChallenges(); got != 1 {
		t.Fatalf("pending = %d before confirm", got)
	}
	resp, err = r.client.roundTrip(&ConfirmTx{
		Nonce: ch.Nonce, Confirmed: true, Mode: ModeQuote, Evidence: []byte{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	outcome := resp.(*Outcome)
	if outcome.Accepted {
		t.Fatal("expired challenge redeemed")
	}
	if outcome.Reason != "challenge expired" {
		t.Fatalf("reason = %q", outcome.Reason)
	}
	if !outcome.Retryable {
		t.Fatal("expiry rejection not marked retryable")
	}
	st := r.provider.Stats()
	if st.RejectedStale != 1 || st.ExpiredChallenges != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := r.provider.PendingChallenges(); got != 0 {
		t.Fatalf("pending = %d after expired confirm", got)
	}
	if bal, _ := r.provider.Ledger().Balance("bob"); bal != 0 {
		t.Fatalf("expired confirm moved money: bob = %d", bal)
	}
}

func TestConfirmAfterChallengeCollected(t *testing.T) {
	r := newRig(t, nil)
	resp, err := r.client.roundTrip(&SubmitTx{Tx: payment("tx-gone", "bob", 5_000)})
	if err != nil {
		t.Fatal(err)
	}
	ch := resp.(*Challenge)

	r.clock.Sleep(10 * time.Minute)
	if n := r.provider.GC(); n != 1 {
		t.Fatalf("GC collected %d", n)
	}
	if st := r.provider.Stats(); st.ExpiredChallenges != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// The confirm for the collected challenge arrives late: the nonce
	// is simply unknown now, and the rejection is retryable — a fresh
	// session gets a fresh challenge.
	resp, err = r.client.roundTrip(&ConfirmTx{
		Nonce: ch.Nonce, Confirmed: true, Mode: ModeQuote, Evidence: []byte{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	outcome := resp.(*Outcome)
	if outcome.Accepted {
		t.Fatal("collected challenge redeemed")
	}
	if outcome.Reason != "unknown or expired challenge" {
		t.Fatalf("reason = %q", outcome.Reason)
	}
	if !outcome.Retryable {
		t.Fatal("post-GC rejection not marked retryable")
	}
	if st := r.provider.Stats(); st.RejectedStale != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMaybeGCBoundsPendingState(t *testing.T) {
	r := newRig(t, nil)
	tx := payment("tx-dos", "bob", 5_000)
	for i := 0; i < 5; i++ {
		r.provider.issueChallenge(pendingChallenge{kind: pendingConfirm, tx: tx}, nil)
	}
	r.clock.Sleep(10 * time.Minute)

	// 59 more issuances bring gcTick to 64: the opportunistic GC fires
	// on the last one and collects the 5 stale challenges without any
	// external GC call. It is the provider's first sweep, so no earlier
	// one holds the ttl/8 time gate shut.
	for i := 0; i < 59; i++ {
		r.provider.issueChallenge(pendingChallenge{kind: pendingConfirm, tx: tx}, nil)
	}
	if got := r.provider.PendingChallenges(); got != 59 {
		t.Fatalf("pending = %d after opportunistic GC", got)
	}
	if st := r.provider.Stats(); st.ExpiredChallenges != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestReplayAfterTTLRejectedBeforeGC retransmits a confirmed proof at
// the TTL (the cached answer) and just past it (a stale rejection, no
// GC having run), on a live provider and on one restored from its
// store right after the confirmation: the pending/answered table is
// the only record of the challenge, so the restored one must decide
// the same way, and the ledger moves once.
func TestReplayAfterTTLRejectedBeforeGC(t *testing.T) {
	for _, restart := range []bool{false, true} {
		t.Run(map[bool]string{false: "live", true: "restart"}[restart], func(t *testing.T) {
			testReplayAfterTTL(t, restart)
		})
	}
}

func testReplayAfterTTL(t *testing.T, restart bool) {
	var d *durableRig
	var r *rig
	if restart {
		d = newDurableRig(t, 0, faults.NewCrashPlan(sim.NewRand(5), faults.CrashRates{}),
			faults.RecoveryPolicy{}.Tear(sim.NewRand(6)))
		r = d.rig
	} else {
		r = newRig(t, nil)
	}
	captured := captureOutbound[*ConfirmTx](r)
	r.pressOnce('y')
	original, err := r.client.SubmitTransaction(payment("tx-echo", "bob", 5_000))
	if err != nil {
		t.Fatal(err)
	}
	if !original.Accepted {
		t.Fatalf("setup: %+v", original)
	}
	if restart {
		d.restart(t)
	}

	// A retransmission exactly at the TTL still gets the cached answer.
	// The outcome was cached while the response was still in flight, so
	// the TTL runs from the cache entry's time, not from now.
	msg, err := DecodeMessage((*captured)[0])
	if err != nil {
		t.Fatal(err)
	}
	nonce := msg.(*ConfirmTx).Nonce
	sh := r.provider.shardFor(nonce)
	sh.mu.Lock()
	cached, ok := sh.answered[nonce]
	sh.mu.Unlock()
	if !ok {
		t.Fatal("no cached outcome for the confirmed nonce")
	}
	r.clock.Sleep(cached.at.Add(5 * time.Minute).Sub(r.clock.Now()))
	if replayed := replayLast(t, r, *captured); !replayed.Accepted {
		t.Fatalf("replay at the TTL = %+v", replayed)
	}

	// One instant later the cached outcome is stale. No GC has run, so
	// the entry is still held, but the answer must be what a swept cache
	// gives: a clean, retryable stale rejection.
	r.clock.Sleep(time.Nanosecond)
	replayed := replayLast(t, r, *captured)
	if replayed.Accepted {
		t.Fatal("replay past the TTL got the cached acceptance")
	}
	if replayed.Reason != "unknown or expired challenge" {
		t.Fatalf("reason = %q", replayed.Reason)
	}
	if !replayed.Retryable {
		t.Fatal("stale replay rejection not marked retryable")
	}
	st := r.provider.Stats()
	if st.RejectedStale != 1 || st.ExpiredOutcomes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if bal, _ := r.provider.Ledger().Balance("bob"); bal != 5_000 {
		t.Fatalf("replay moved money: bob = %d", bal)
	}
}

func TestMaybeGCIsTimeGated(t *testing.T) {
	r := newRig(t, nil)
	tx := payment("tx-gate", "bob", 5_000)
	issue := func(n int) (last attest.Nonce) {
		for i := 0; i < n; i++ {
			last = r.provider.issueChallenge(pendingChallenge{kind: pendingConfirm, tx: tx}, nil)
		}
		return last
	}

	// Five challenges, then a first sweep (gcTick 64) ten seconds before
	// they expire: it collects nothing, but it starts the ttl/8 gate.
	stale := issue(5)
	r.clock.Sleep(5*time.Minute - 10*time.Second)
	issue(59)
	if got := r.provider.PendingChallenges(); got != 64 {
		t.Fatalf("pending = %d after the first sweep", got)
	}

	// Twenty seconds on, the five are stale, but less than ttl/8 (37.5s)
	// has passed since that sweep: gcTick 128 does not sweep.
	r.clock.Sleep(20 * time.Second)
	issue(64)
	if got := r.provider.PendingChallenges(); got != 128 {
		t.Fatalf("pending = %d: a sweep ran inside the time gate", got)
	}
	if st := r.provider.Stats(); st.ExpiredChallenges != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// A stale challenge still held is still refused at redemption.
	respBytes, err := r.provider.Handle(mustEncode(t, &ConfirmTx{
		Nonce: stale, Confirmed: true, Mode: ModeQuote, Evidence: []byte{1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if outcome := mustDecode(t, respBytes).(*Outcome); outcome.Accepted || outcome.Reason != "challenge expired" {
		t.Fatalf("stale confirm = %+v", outcome)
	}

	// Past ttl/8 the gate is open, yet the sweep still waits for the
	// next 64th issuance, which collects the four stale challenges left.
	r.clock.Sleep(20 * time.Second)
	issue(63)
	if got := r.provider.PendingChallenges(); got != 190 {
		t.Fatalf("pending = %d before gcTick 192", got)
	}
	issue(1)
	if got := r.provider.PendingChallenges(); got != 187 {
		t.Fatalf("pending = %d after gcTick 192", got)
	}
	if st := r.provider.Stats(); st.ExpiredChallenges != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMaybeGCConcurrentIssuance issues challenges from several
// goroutines at once across many 64-issuance boundaries: the gate's
// time and CAS are shared by every issuer, and the stale challenges
// must be collected exactly once.
func TestMaybeGCConcurrentIssuance(t *testing.T) {
	r := newRig(t, nil)
	tx := payment("tx-race", "bob", 5_000)
	for i := 0; i < 5; i++ {
		r.provider.issueChallenge(pendingChallenge{kind: pendingConfirm, tx: tx}, nil)
	}
	r.clock.Sleep(10 * time.Minute)
	const workers, each = 4, 160
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.provider.issueChallenge(pendingChallenge{kind: pendingConfirm, tx: tx}, nil)
			}
		}()
	}
	wg.Wait()
	if got := r.provider.PendingChallenges(); got != workers*each {
		t.Fatalf("pending = %d, want %d", got, workers*each)
	}
	if st := r.provider.Stats(); st.ExpiredChallenges != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

// BenchmarkIssueChallengeLiveState issues challenges against a
// provider holding a steady live set of answered outcomes. Each
// operation issues one challenge, answers it into the replay cache,
// and advances the clock by TTL/held, so the cache holds about `held`
// outcomes younger than the TTL throughout. The opportunistic sweep
// visits every held entry when it runs; with it gated on elapsed time,
// ns/op stays flat as held state grows.
func BenchmarkIssueChallengeLiveState(b *testing.B) {
	for _, held := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("answered=%dk", held>>10), func(b *testing.B) {
			clock := sim.NewVirtualClock()
			p := NewProvider(ProviderConfig{Clock: clock})
			step := p.ttl / time.Duration(held)
			pend := pendingChallenge{kind: pendingConfirm, tx: payment("tx-held", "bob", 5_000)}
			answered := Outcome{Accepted: true, Reason: "confirmed by user"}
			op := func() {
				clock.Sleep(step)
				nonce := p.issueChallenge(pend, nil)
				sh := p.shardFor(nonce)
				sh.mu.Lock()
				delete(sh.pending, nonce)
				sh.mu.Unlock()
				p.rememberOutcome(nonce, &answered, nil)
			}
			// Warm up past one TTL plus the sweep interval, so the held
			// set has reached its steady size before timing starts.
			for i := 0; i < held+held/8+64; i++ {
				op()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}
