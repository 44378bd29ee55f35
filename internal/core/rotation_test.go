package core

import (
	"bytes"
	"fmt"
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
// durable provider through cadence points and a random mix of forced
// snapshots, and after every payment restores a copy of its store — the
// last snapshot and the WAL since it, which is the delta — which must
// encode the same snapshot as the live provider. Right after a cadence
// point the counters match too; between two, the restore holds those of
// the last cadence point.
func TestDeltaRestoreEqualsLive(t *testing.T) {
	d := newDurableRig(t, 3, faults.NewCrashPlan(sim.NewRand(1), faults.CrashRates{}), nil)
	d.alwaysApprove()
	rng := sim.NewRand(0xDE17A)
	atCadence := 0
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
		restored := restoreCopy(t, d.backend)
		if d.provider.commit.sinceSnap == 0 {
			atCadence++
		} else {
			restored.stats = d.provider.Stats()
		}
		if got, live := restored.encodeState(), d.provider.encodeState(); !bytes.Equal(got, live) {
			t.Fatalf("payment %d: restored provider encodes %d bytes differing from the live %d", i, len(got), len(live))
		}
	}
	if atCadence < 5 {
		t.Fatalf("only %d payments ended at a cadence point: counters barely checked", atCadence)
	}
}

// TestRotationRule checks what a cadence point writes: while the WAL
// since the last snapshot is smaller than that snapshot's payload, no
// snapshot but a synced counters group; once the WAL has reached that
// size, a full snapshot, which empties the WAL.
func TestRotationRule(t *testing.T) {
	p := NewProvider(ProviderConfig{Name: "rule"})
	for i := 0; i < 50; i++ {
		if err := p.Ledger().CreateAccount(fmt.Sprintf("acct-%03d", i), 1_000); err != nil {
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
	rotations, counters := 0, 0
	for i := 0; i < 40; i++ {
		before := st.Stats()
		p.stateMu.Lock()
		err := p.cadencePoint()
		p.stateMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		after := st.Stats()
		if before.WALBytes >= before.SnapshotBytes {
			if after.Snapshots != before.Snapshots+1 || after.WALBytes != 0 {
				t.Fatalf("cadence point %d: %d WAL bytes over a %d-byte snapshot did not rotate: %+v",
					i, before.WALBytes, before.SnapshotBytes, after)
			}
			rotations++
		} else {
			if after.Snapshots != before.Snapshots || after.Syncs != before.Syncs+1 || after.WALBytes <= before.WALBytes {
				t.Fatalf("cadence point %d: %d WAL bytes under a %d-byte snapshot: want one synced counters group, got %+v",
					i, before.WALBytes, before.SnapshotBytes, after)
			}
			counters++
		}
		// The WAL growth of the commits up to the next cadence point.
		if err := st.Append(make([]byte, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if rotations < 2 || counters < 2*rotations {
		t.Fatalf("%d rotations and %d counters groups: want both, mostly counters", rotations, counters)
	}
}

// TestCountersSurviveReplay restores a copy of a durable provider's
// store after every payment, with a snapshot cadence of one commit, so
// each restore comes right after a cadence point: the copy must encode
// the live provider's snapshot, counters included — also where that
// cadence point wrote no snapshot, and the counters come from the WAL.
func TestCountersSurviveReplay(t *testing.T) {
	d := newDurableRig(t, 1, faults.NewCrashPlan(sim.NewRand(1), faults.CrashRates{}), nil)
	d.alwaysApprove()
	fromWAL := 0
	for i := 0; i < 16; i++ {
		outcome, err := d.client.SubmitTransaction(payment(fmt.Sprintf("counted-%d", i), "bob", 1_000))
		if err != nil || !outcome.Accepted {
			t.Fatalf("payment %d: %+v, %v", i, outcome, err)
		}
		restored := restoreCopy(t, d.backend)
		if got, live := restored.Stats(), d.provider.Stats(); got != live {
			t.Fatalf("payment %d: restored counters %+v, live %+v", i, got, live)
		}
		if got, live := restored.encodeState(), d.provider.encodeState(); !bytes.Equal(got, live) {
			t.Fatalf("payment %d: restored provider encodes %d bytes differing from the live %d", i, len(got), len(live))
		}
		if d.provider.Store().Stats().WALBytes > 0 {
			fromWAL++
		}
	}
	if fromWAL < 8 {
		t.Fatalf("only %d of 16 restores replayed a WAL: counters barely taken from one", fromWAL)
	}
}

// TestRecoveryBound checks what a restore reads after many cadence
// points: at most the last full snapshot's payload plus one cadence of
// groups. At a cadence point that writes no snapshot the WAL is below
// that payload; its counters group and at most snapEvery committed
// groups follow before the next one.
func TestRecoveryBound(t *testing.T) {
	const every = 3
	const walFrame = 8 // a WAL record's u32 length and u32 CRC
	d := newDurableRig(t, every, faults.NewCrashPlan(sim.NewRand(1), faults.CrashRates{}), nil)
	d.alwaysApprove()
	maxGroup := 0
	d.provider.SetCommitHook(func(groups [][]byte) error {
		for _, g := range groups {
			maxGroup = max(maxGroup, len(g))
		}
		return nil
	})
	var counters journal
	counters.countersRecorded(&ProviderStats{})
	counterGroup := len(counters.group()) + walFrame
	for i := 0; i < 40; i++ {
		outcome, err := d.client.SubmitTransaction(payment(fmt.Sprintf("bound-%d", i), "bob", 1_000))
		if err != nil || !outcome.Accepted {
			t.Fatalf("payment %d: %+v, %v", i, outcome, err)
		}
		live := d.provider.Store().Stats()
		got := restoreCopy(t, d.backend).Store().Stats().RecoveredBytes
		if got != live.WALBytes {
			t.Fatalf("payment %d: restore read %d WAL bytes, the live WAL holds %d", i, got, live.WALBytes)
		}
		if bound := live.SnapshotBytes + uint64(counterGroup+every*(maxGroup+walFrame)); got > bound {
			t.Fatalf("payment %d: restore read %d WAL bytes over a %d-byte snapshot, bound %d",
				i, got, live.SnapshotBytes, bound)
		}
	}
	if st := d.provider.Store().Stats(); st.Snapshots < 3 {
		t.Fatalf("%d snapshots in 40 payments: the bound was checked across too few rotations", st.Snapshots)
	}
}
