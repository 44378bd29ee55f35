package core

import (
	"errors"
	"fmt"
	"testing"

	"unitp/internal/faults"
	"unitp/internal/sim"
	"unitp/internal/store"
)

// White-box tests for the group committer (durable.go): they drive
// enqueueGroup/awaitCommit directly — no sessions, no verification — so
// the batch boundaries are exact and the crash points land inside a
// known multi-group write set.

// newGroupCommitProvider builds a pipeline-mode provider over a
// crash-hookable in-memory backend with a funded ledger.
func newGroupCommitProvider(t *testing.T) (*Provider, *store.MemBackend) {
	t.Helper()
	p := NewProvider(ProviderConfig{
		Name:   "gc-test",
		Clock:  sim.NewVirtualClock(),
		Random: sim.NewRand(0x6C),
	})
	for acct, cents := range map[string]int64{"alice": 10_000, "bob": 0} {
		if err := p.Ledger().CreateAccount(acct, cents); err != nil {
			t.Fatal(err)
		}
	}
	backend := store.NewMemBackend()
	st, err := store.Open(backend)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	return p, backend
}

// enqueueTransfers applies one 100-cent alice→bob transfer per ID under
// stateMu, journaling each into its own group — exactly what concurrent
// requests do — and returns the queued commit requests. Because all of
// them are queued before any awaitCommit runs, the committer must take
// them as ONE write set.
func enqueueTransfers(t *testing.T, p *Provider, ids ...string) []*commitReq {
	t.Helper()
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	reqs := make([]*commitReq, 0, len(ids))
	for _, id := range ids {
		tx := &Transaction{ID: id, From: "alice", To: "bob", AmountCents: 100, Currency: "EUR"}
		j := &journal{}
		if err := p.ledger.apply(tx, j.ledgerApplied); err != nil {
			t.Fatalf("apply %s: %v", id, err)
		}
		reqs = append(reqs, p.enqueueGroup(j))
	}
	return reqs
}

// awaitAll collects every request's commit result.
func awaitAll(p *Provider, reqs []*commitReq) []error {
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		errs[i] = p.awaitCommit(req)
	}
	return errs
}

// restoreGroupCommitProvider revives the backend (nil tear: every
// unsynced byte is lost, the worst power-loss outcome) and rebuilds the
// provider from what survived.
func restoreGroupCommitProvider(t *testing.T, backend *store.MemBackend) *Provider {
	t.Helper()
	backend.SetCrashHook(nil)
	backend.Recover(nil)
	st, err := store.Open(backend)
	if err != nil {
		t.Fatal(err)
	}
	p, err := RestoreProvider(ProviderConfig{
		Name:   "gc-test",
		Clock:  sim.NewVirtualClock(),
		Random: sim.NewRand(0x6D),
	}, st)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return p
}

func mustBalance(t *testing.T, p *Provider, acct string, want int64) {
	t.Helper()
	got, err := p.Ledger().Balance(acct)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("%s = %d, want %d", acct, got, want)
	}
}

// TestGroupCommitBatchesQueuedJournals checks the committer takes every
// journal queued before it runs as a single write set: three groups,
// one batch, one sync.
func TestGroupCommitBatchesQueuedJournals(t *testing.T) {
	p, _ := newGroupCommitProvider(t)
	before := p.Store().Stats().Syncs
	reqs := enqueueTransfers(t, p, "gc-1", "gc-2", "gc-3")
	for i, err := range awaitAll(p, reqs) {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if got := p.CommitBatchSizes()[3]; got != 1 {
		t.Fatalf("batch-size distribution %v, want one batch of 3", p.CommitBatchSizes())
	}
	if syncs := p.Store().Stats().Syncs - before; syncs != 1 {
		t.Fatalf("batch of 3 paid %d syncs, want 1", syncs)
	}
	mustBalance(t, p, "bob", 300)
}

// TestGroupCommitTornBatchLosesWholeGroups crashes on the sync under a
// three-group batch. The durability contract is that a torn batch
// tears at whole-group boundaries and no response escaped: after
// recovery NONE of the three transfers may be visible (the batch's
// bytes were all in the unsynced window), and re-running them against
// the restored provider succeeds — the idempotence a retrying client
// depends on.
func TestGroupCommitTornBatchLosesWholeGroups(t *testing.T) {
	p, backend := newGroupCommitProvider(t)
	plan := faults.NewCrashPlan(sim.NewRand(0xABC), faults.CrashRates{}).
		ScheduleCrash(faults.CrashBeforeSync, 0)
	backend.SetCrashHook(plan.Hook)
	plan.Arm()

	reqs := enqueueTransfers(t, p, "torn-1", "torn-2", "torn-3")
	for i, err := range awaitAll(p, reqs) {
		if err == nil {
			t.Fatalf("commit %d reported durable through a crashed sync", i)
		}
	}
	if !p.isDead() {
		t.Fatal("provider survived a store failure")
	}
	probe, err := EncodeMessage(&SubmitTx{Tx: &Transaction{
		ID: "probe", From: "alice", To: "bob", AmountCents: 1, Currency: "EUR",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Handle(probe); !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("dead provider answered: %v", err)
	}

	p2 := restoreGroupCommitProvider(t, backend)
	mustBalance(t, p2, "bob", 0)
	mustBalance(t, p2, "alice", 10_000)

	// The client's retry lands on clean state: all three re-apply.
	for i, err := range awaitAll(p2, enqueueTransfers(t, p2, "torn-1", "torn-2", "torn-3")) {
		if err != nil {
			t.Fatalf("retry commit %d: %v", i, err)
		}
	}
	mustBalance(t, p2, "bob", 300)
}

// TestGroupCommitDurableSurvivesPostSyncCrash crashes just after the
// batch's sync: the write set is fully durable even though no waiter
// got a success. After recovery all three transfers are visible and
// re-applying any of them reports the duplicate — the other half of
// exactly-once.
func TestGroupCommitDurableSurvivesPostSyncCrash(t *testing.T) {
	p, backend := newGroupCommitProvider(t)
	plan := faults.NewCrashPlan(sim.NewRand(0xABD), faults.CrashRates{}).
		ScheduleCrash(faults.CrashAfterSync, 0)
	backend.SetCrashHook(plan.Hook)
	plan.Arm()

	reqs := enqueueTransfers(t, p, "dur-1", "dur-2", "dur-3")
	for i, err := range awaitAll(p, reqs) {
		if err == nil {
			t.Fatalf("commit %d reported success from a crashed provider", i)
		}
	}

	p2 := restoreGroupCommitProvider(t, backend)
	mustBalance(t, p2, "bob", 300)
	mustBalance(t, p2, "alice", 9_700)
	dup := &Transaction{ID: "dur-2", From: "alice", To: "bob", AmountCents: 100, Currency: "EUR"}
	if err := p2.Ledger().Apply(dup); !errors.Is(err, ErrDuplicateTransaction) {
		t.Fatalf("re-apply after durable crash: %v, want ErrDuplicateTransaction", err)
	}
	mustBalance(t, p2, "bob", 300)
}

// TestGroupCommitInterleavedWaiters checks commit results route to the
// right waiters when batches form while a previous sync is in flight:
// every request sees its own group's verdict, and the distribution
// never records a batch larger than what was actually queued.
func TestGroupCommitInterleavedWaiters(t *testing.T) {
	p, _ := newGroupCommitProvider(t)
	const rounds = 5
	for round := 0; round < rounds; round++ {
		ids := make([]string, round+1)
		for i := range ids {
			ids[i] = fmt.Sprintf("ivl-%d-%d", round, i)
		}
		for i, err := range awaitAll(p, enqueueTransfers(t, p, ids...)) {
			if err != nil {
				t.Fatalf("round %d req %d: %v", round, i, err)
			}
		}
	}
	// 1+2+3+4+5 transfers of 100 cents each.
	mustBalance(t, p, "bob", 1_500)
	total := 0
	for size, count := range p.CommitBatchSizes() {
		if size > rounds {
			t.Fatalf("recorded a batch of %d, larger than any round", size)
		}
		total += size * count
	}
	if total != 15 {
		t.Fatalf("distribution accounts for %d groups, want 15", total)
	}
}
