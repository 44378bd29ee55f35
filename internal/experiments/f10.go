package experiments

import (
	"fmt"
	"time"

	"unitp/internal/check"
	"unitp/internal/faults"
	"unitp/internal/metrics"
	"unitp/internal/netsim"
	"unitp/internal/sim"
	"unitp/internal/store"
	"unitp/internal/workload"
)

// The crash sweep exercises the durability substrate end to end: the
// provider WAL-commits every request against a crash-hooked backend,
// the plan kills it at injected points, the disk is torn (partial
// writes plus trailing garbage), and the harness restarts it from the
// latest snapshot + WAL tail. What F10 measures is (a) whether recovery
// ever fails, (b) whether the final restored provider breaks any
// invariant internal/check judges against the client's acceptances —
// lost, doubled or unsubmitted transfers, unreconciled balances, an
// audit log that does not replay — and (c) what WAL replay costs as
// the snapshot interval stretches.

// f10Summary is one cell of the crash sweep. RecoveryTime is real
// (host) time — replay speed is a property of the machine, not of the
// simulation — and is excluded from determinism comparisons.
type f10Summary struct {
	SnapEvery    int
	Transactions int

	// Accepted counts transactions that eventually reported accepted.
	Accepted int

	// Crashes is the plan's total injected-crash count.
	Crashes int

	// Recoveries counts provider restarts (every one must succeed; a
	// failed restore aborts the cell with an error).
	Recoveries int

	// WALReplayed is the total number of WAL group records replayed
	// across all recoveries.
	WALReplayed uint64

	// Rotations counts the snapshots the provider's cadence wrote,
	// across all lives: each life's snapshots less the one that began
	// it (AttachStore's or the restore's).
	Rotations uint64

	// Violations counts broken recovery invariants; the shape
	// expectation is exactly 0 everywhere.
	Violations int

	// AuditEntries is the restored provider's audit-log length.
	AuditEntries int

	// RecoveryTime is total real time spent inside RestoreProvider.
	RecoveryTime time.Duration
}

// deterministicEqual compares the seeded-run-stable fields of two cells.
func (a *f10Summary) deterministicEqual(b *f10Summary) bool {
	return a.SnapEvery == b.SnapEvery && a.Transactions == b.Transactions &&
		a.Accepted == b.Accepted && a.Crashes == b.Crashes &&
		a.Recoveries == b.Recoveries && a.WALReplayed == b.WALReplayed && a.Rotations == b.Rotations &&
		a.Violations == b.Violations && a.AuditEntries == b.AuditEntries
}

// f10Recover power-cycles the provider: tear the unsynced window,
// rebuild from the store, re-arm the plan. The plan is disarmed for the
// duration so recovery cannot crash recursively.
func f10Recover(d *workload.Deployment, backend *store.MemBackend,
	plan *faults.CrashPlan, tear func(string, []byte) []byte, sum *f10Summary) error {
	plan.Disarm()
	backend.SetCrashHook(nil)
	if n := d.Provider.Store().Stats().Snapshots; n > 0 {
		sum.Rotations += n - 1
	}
	backend.Recover(tear)
	sum.Recoveries++
	start := time.Now()
	err := d.RestartProvider()
	sum.RecoveryTime += time.Since(start)
	if err != nil {
		return fmt.Errorf("f10: recovery %d: %w", sum.Recoveries, err)
	}
	sum.WALReplayed += d.Provider.Store().Stats().RecoveredRecords
	backend.SetCrashHook(plan.Hook)
	plan.Arm()
	return nil
}

// f10MaxFailures bounds a transaction's failed attempts during which
// no crash fired. Such a failure is a fault of its own, not crash
// fallout, so the budget stays tight.
const f10MaxFailures = 16

// f10MaxCrashedAttempts bounds a transaction's attempts that a crash
// killed. Storm cells legitimately need dozens of them (each rotation
// is many crashable store operations); the cap only guards against a
// cell that never finishes.
const f10MaxCrashedAttempts = 256

// runF10Cell drives txCount transactions through a durable deployment
// under the given crash plan, restarting the provider whenever a crash
// kills a session, then restarts once more and audits the invariants.
func runF10Cell(seed uint64, snapEvery int, plan *faults.CrashPlan,
	tear func(string, []byte) []byte, txCount int) (*f10Summary, error) {
	backend := store.NewMemBackend()
	d, err := workload.NewDeployment(workload.DeploymentConfig{
		Seed:          seed,
		Backend:       backend,
		SnapshotEvery: snapEvery,
		Retry:         &netsim.RetryPolicy{MaxAttempts: 2, AttemptTimeout: time.Second},
	})
	if err != nil {
		return nil, err
	}
	backend.SetCrashHook(plan.Hook)
	stream := workload.NewTxStream(d.Rng.Fork("txs"), workload.TxStreamConfig{From: "alice"})
	user := workload.DefaultUser(d.Rng.Fork("user"))
	user.AttachTo(d.Machine)

	sum := &f10Summary{SnapEvery: snapEvery, Transactions: txCount}
	accepted := map[string]int64{}
	for i := 0; i < txCount; i++ {
		tx, _ := stream.Next()
		user.Intend(tx)
		failures, crashed := 0, 0
		for {
			crashesBefore := plan.Stats().Total()
			outcome, err := d.Client.SubmitTransaction(tx)
			if err != nil {
				// The session died (provider crash surfaces as a reset,
				// exhausting the transport retries). Power-cycle and retry
				// the same order — its ID is the idempotence key.
				if plan.Stats().Total() > crashesBefore {
					crashed++
				} else {
					failures++
				}
				if failures >= f10MaxFailures {
					return nil, fmt.Errorf("f10: %s failed %d attempts without a crash: %w", tx.ID, failures, err)
				}
				if crashed >= f10MaxCrashedAttempts {
					return nil, fmt.Errorf("f10: %s made no progress in %d crashed attempts", tx.ID, crashed)
				}
				if rerr := f10Recover(d, backend, plan, tear, sum); rerr != nil {
					return nil, rerr
				}
				continue
			}
			if !outcome.Accepted {
				return nil, fmt.Errorf("f10: %s rejected: %s", tx.ID, outcome.Reason)
			}
			accepted[tx.ID] = tx.AmountCents
			break
		}
	}
	// One final restart: whatever the disk holds now must reproduce the
	// accepted history exactly.
	if err := f10Recover(d, backend, plan, tear, sum); err != nil {
		return nil, err
	}
	sum.Accepted = len(accepted)
	sum.Crashes = plan.Stats().Total()
	sum.Violations = len(check.Run(accepted, []check.Shard{{
		Provider: d.Provider, Initial: workload.DefaultAccounts(),
	}}).Violations)
	sum.AuditEntries = len(d.Provider.AuditLog().Entries())
	return sum, nil
}

// runF10StormCell runs one F10b cell: eight transactions under a
// uniform crash rate. k is the cell's position in RunF10's order, which
// seeds it.
func runF10StormCell(k int, rate float64, snapEvery int) (*f10Summary, error) {
	seed := seedFor("f10b", k)
	plan := faults.NewCrashPlan(sim.NewRand(seed^0xC4A5), faults.UniformCrash(rate))
	return runF10Cell(seed, snapEvery, plan, f10Tear(seed), 8)
}

// f10Tear is the harsh recovery policy of the sweep: torn writes plus
// trailing garbage on every crash.
func f10Tear(seed uint64) func(string, []byte) []byte {
	return faults.RecoveryPolicy{TornWrite: true, TrailingGarbage: true}.
		Tear(sim.NewRand(seed ^ 0x7EA2))
}

// RunF10 sweeps crash injection across crash points and crash rates,
// crossed with snapshot intervals, and reports recovery success,
// invariant violations (the headline: all zero), and WAL replay cost.
//
// Shape expectations: every scheduled crash point recovers with zero
// violations at every snapshot interval; under probabilistic crash
// storms recovery count grows with the rate while violations stay zero;
// and the WAL replayed per recovery stays bounded by the state: a
// cadence point rotates only once the WAL has outgrown the last
// snapshot, so the snapshot interval adds at most one cadence of groups
// to what a recovery replays, and a restore (which rotates) resets it.
func RunF10() (*Result, error) {
	pointTable := metrics.NewTable(
		"F10a: scheduled crash-point sweep — one injected crash per cell, torn+garbage recovery",
		"crash point", "snap every", "crashes", "recoveries", "rotations", "wal replayed",
		"violations", "audit len", "recovery ms")
	k := 0
	for _, point := range faults.CrashPoints() {
		for _, snapEvery := range []int{1, 4} {
			k++
			seed := seedFor("f10a", k)
			plan := faults.NewCrashPlan(sim.NewRand(seed^0xC4A5), faults.CrashRates{}).
				ScheduleCrash(point, 1)
			cell, err := runF10Cell(seed, snapEvery, plan, f10Tear(seed), 4)
			if err != nil {
				return nil, err
			}
			pointTable.AddRow(point.String(), fmt.Sprintf("%d", cell.SnapEvery),
				fmt.Sprintf("%d", cell.Crashes), fmt.Sprintf("%d", cell.Recoveries),
				fmt.Sprintf("%d", cell.Rotations),
				fmt.Sprintf("%d", cell.WALReplayed), fmt.Sprintf("%d", cell.Violations),
				fmt.Sprintf("%d", cell.AuditEntries),
				millis(cell.RecoveryTime))
		}
	}

	rateTable := metrics.NewTable(
		"F10b: crash-rate storm — uniform per-op crash probability across all points",
		"crash rate", "snap every", "crashes", "recoveries", "rotations", "wal replayed",
		"violations", "accepted", "recovery ms")
	for _, rate := range []float64{0.005, 0.02, 0.05} {
		for _, snapEvery := range []int{1, 4, 16} {
			k++
			cell, err := runF10StormCell(k, rate, snapEvery)
			if err != nil {
				return nil, err
			}
			rateTable.AddRow(fmt.Sprintf("%.3f", rate), fmt.Sprintf("%d", cell.SnapEvery),
				fmt.Sprintf("%d", cell.Crashes), fmt.Sprintf("%d", cell.Recoveries),
				fmt.Sprintf("%d", cell.Rotations),
				fmt.Sprintf("%d", cell.WALReplayed), fmt.Sprintf("%d", cell.Violations),
				fmt.Sprintf("%d/%d", cell.Accepted, cell.Transactions),
				millis(cell.RecoveryTime))
		}
	}

	text := joinSections(pointTable.Render(), rateTable.Render(),
		"shape check: recovery succeeds at every crash point and rate with ZERO invariant violations\n"+
			"(no double-applied or lost transfers, audit chain verifies end to end); a cadence point\n"+
			"rotates only once the WAL has outgrown the last snapshot, so rotations are few and the\n"+
			"WAL replayed per recovery stays within about a snapshot's worth plus one cadence of groups\n")
	return &Result{ID: "f10", Title: "Crash sweep", Text: text}, nil
}
