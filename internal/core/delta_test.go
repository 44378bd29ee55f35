package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"unitp/internal/faults"
	"unitp/internal/sim"
	"unitp/internal/store"
)

// restoreCopy restores a provider from a copy of the backend's files as
// they stand (unsynced bytes included), leaving the live store alone.
func restoreCopy(t *testing.T, b *store.MemBackend) *Provider {
	t.Helper()
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	cp := store.NewMemBackend()
	for _, name := range names {
		data, err := b.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := cp.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	st, err := store.Open(cp)
	if err != nil {
		t.Fatal(err)
	}
	p, err := RestoreProvider(ProviderConfig{Name: "restored", Clock: sim.NewVirtualClock()}, st)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return p
}

// TestDeltaRestoreEqualsLive drives payments to random accounts of a
// durable provider through a random mix of full and delta rotations,
// and after every payment restores a copy of its store — base, delta
// and WAL — which must encode the same full snapshot as the live
// provider, counters aside.
func TestDeltaRestoreEqualsLive(t *testing.T) {
	d := newDurableRig(t, 3, faults.NewCrashPlan(sim.NewRand(1), faults.CrashRates{}), nil)
	d.alwaysApprove()
	rng := sim.NewRand(0xDE17A)
	for i := 0; i < 40; i++ {
		if rng.Intn(8) == 0 {
			if err := d.provider.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
		to := fmt.Sprintf("filler-%03d", rng.Intn(rigFillerAccounts))
		outcome, err := d.client.SubmitTransaction(payment(fmt.Sprintf("delta-%d", i), to, int64(100+rng.Intn(900))))
		if err != nil || !outcome.Accepted {
			t.Fatalf("payment %d: %+v, %v", i, outcome, err)
		}
		// The WAL does not journal the counters, so a restore holds
		// those of its last snapshot; every other section must match.
		restored := restoreCopy(t, d.backend)
		restored.stats = d.provider.Stats()
		if got, live := restored.encodeState(), d.provider.encodeState(); !bytes.Equal(got, live) {
			t.Fatalf("payment %d: restored provider encodes %d bytes differing from the live %d", i, len(got), len(live))
		}
	}
	st := d.provider.Store().Stats()
	if st.DeltaSnapshots == 0 || st.Snapshots-st.DeltaSnapshots < 3 {
		t.Fatalf("%d rotations, %d of them deltas: want a mix", st.Snapshots, st.DeltaSnapshots)
	}
}

// TestDeltaRotationRule checks when a rotation writes a delta: never
// before a base, never after the arena's layout changed, and only while
// the deltas written since the base stay under its size.
func TestDeltaRotationRule(t *testing.T) {
	p := NewProvider(ProviderConfig{Name: "rule"})
	for i := 0; i < 200; i++ {
		if err := p.Ledger().CreateAccount(fmt.Sprintf("acct-%03d", i), 1_000); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(store.NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	p.snapEvery = 1
	if err := p.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	kinds := ""
	rotate := func() {
		t.Helper()
		before := st.Stats().DeltaSnapshots
		if err := p.snapshotIdle(false); err != nil {
			t.Fatal(err)
		}
		if st.Stats().DeltaSnapshots > before {
			kinds += "d"
		} else {
			kinds += "F"
		}
	}
	for i := 0; i < 30; i++ {
		tx := &Transaction{ID: fmt.Sprintf("rule-%d", i), From: "acct-000", To: fmt.Sprintf("acct-%03d", 1+i),
			AmountCents: 1, Currency: "EUR"}
		if err := p.ledger.Apply(tx); err != nil {
			t.Fatal(err)
		}
		rotate()
		if i == 20 {
			if err := p.Ledger().CreateAccount("new-account", 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each delta is about the tail plus the growing history: a few
	// deltas fit under the base, then a full rotation rebases. The
	// account created after rotation 21 forces the next one full.
	if kinds[21] != 'F' || !bytes.Contains([]byte(kinds), []byte("dddF")) {
		t.Fatalf("rotation kinds %s", kinds)
	}
}

// markBaseState makes p's current state the base of later deltas, as a
// full rotation would, without a store.
func markBaseState(t testing.TB, p *Provider) {
	t.Helper()
	discard := func([]byte, ...[]byte) error { return nil }
	if err := p.encode(discard, nil, true); err != nil {
		t.Fatal(err)
	}
}

// encodeDeltaState returns the delta payload over the base last marked,
// whatever its size: what a delta rotation would write after the
// envelope header.
func encodeDeltaState(t testing.TB, p *Provider) []byte {
	t.Helper()
	p.snap.baseSize, p.snap.sinceBase = math.MaxInt, 0
	var state []byte
	full := func([]byte, ...[]byte) error { return fmt.Errorf("a delta was due") }
	err := p.encode(full, func(frame []byte, more ...[]byte) error {
		state = append(state, frame[store.DeltaHeaderLen:]...)
		for _, part := range more {
			state = append(state, part...)
		}
		return nil
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// seededDelta returns the pinned seeded provider's full payload and a
// delta over it: transfers between existing accounts (one of them over
// an account the base already saw change), audit entries, and a
// changed tail.
func seededDelta(t testing.TB) (p *Provider, base, delta []byte) {
	p = seededSnapshotProvider(t)
	markBaseState(t, p)
	base = p.encodeState()
	for i, to := range []string{"bob", "zed", "acct-0002"} {
		tx := &Transaction{ID: fmt.Sprintf("delta-%d", i), From: "alice", To: to, AmountCents: int64(10 + i),
			Currency: "EUR", Memo: "after the base"}
		if err := p.ledger.Apply(tx); err != nil {
			t.Fatal(err)
		}
		p.audit.Append(AuditEntry{Kind: AuditConfirm, Note: "delta entry", TxID: tx.ID, TxDigest: tx.Digest(),
			Confirmed: true, Evidence: []byte{byte(i)}})
	}
	p.mu.Lock()
	p.presence["presence-after-base"] = true
	p.mu.Unlock()
	return p, base, encodeDeltaState(t, p)
}

// TestLoadDeltaEqualsLive checks a provider loaded from a base and a
// delta over it encodes the live provider's full snapshot.
func TestLoadDeltaEqualsLive(t *testing.T) {
	live, base, delta := seededDelta(t)
	p := NewProvider(ProviderConfig{Name: "loaded"})
	if err := p.loadDelta(base, delta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.encodeState(), live.encodeState()) {
		t.Fatal("base + delta differs from the live state")
	}
	// A delta loaded over a base other than its own is refused.
	other := NewProvider(ProviderConfig{Name: "other"})
	if err := other.loadDelta(handBuiltState("alice", "bob"), delta); err == nil {
		t.Fatal("delta accepted over a foreign base")
	}
}

// FuzzLoadDelta feeds arbitrary delta payloads over the seeded base to
// the delta decoder: it must never panic, and a delta it accepts must
// leave a provider whose full snapshot is a fixed point of
// decode/encode.
func FuzzLoadDelta(f *testing.F) {
	_, base, delta := seededDelta(f)
	f.Add(delta)
	p := seededSnapshotProvider(f)
	markBaseState(f, p)
	f.Add(encodeDeltaState(f, p))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewProvider(ProviderConfig{Name: "fuzz"})
		if err := p.loadDelta(base, data); err != nil {
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
