package experiments

import (
	"testing"

	"unitp/internal/faults"
	"unitp/internal/sim"
)

// A crash-free cell must need exactly one (final) restart and leave
// zero invariant violations behind.
func TestF10CleanCell(t *testing.T) {
	plan := faults.NewCrashPlan(sim.NewRand(0xF10), faults.CrashRates{})
	cell, err := runF10Cell(0xF10, 2, plan, f10Tear(0xF10), 3)
	if err != nil {
		t.Fatalf("clean cell: %v", err)
	}
	if cell.Crashes != 0 {
		t.Fatalf("clean cell injected %d crashes", cell.Crashes)
	}
	if cell.Recoveries != 1 {
		t.Fatalf("clean cell ran %d recoveries, want exactly the final one", cell.Recoveries)
	}
	if cell.Accepted != cell.Transactions {
		t.Fatalf("accepted %d of %d transactions", cell.Accepted, cell.Transactions)
	}
	if cell.Violations != 0 {
		t.Fatalf("clean cell reported %d invariant violations", cell.Violations)
	}
}

// Every scheduled crash point must actually fire, force at least one
// mid-workload recovery, and still leave zero violations.
func TestF10ScheduledPointsRecover(t *testing.T) {
	for _, point := range faults.CrashPoints() {
		plan := faults.NewCrashPlan(sim.NewRand(0xF10A), faults.CrashRates{}).
			ScheduleCrash(point, 1)
		cell, err := runF10Cell(0xF10A, 1, plan, f10Tear(0xF10A), 3)
		if err != nil {
			t.Fatalf("%v: %v", point, err)
		}
		if cell.Crashes == 0 {
			t.Errorf("%v: scheduled crash never fired", point)
		}
		if cell.Recoveries < 2 {
			t.Errorf("%v: %d recoveries, want a mid-workload one plus the final one",
				point, cell.Recoveries)
		}
		if cell.Violations != 0 {
			t.Errorf("%v: %d invariant violations", point, cell.Violations)
		}
	}
}

// Same seed, same cell parameters → identical deterministic fields,
// even though recovery wall time differs run to run.
func TestF10CellDeterminism(t *testing.T) {
	run := func() *f10Summary {
		plan := faults.NewCrashPlan(sim.NewRand(0xF10B), faults.UniformCrash(0.02))
		cell, err := runF10Cell(0xF10B, 4, plan, f10Tear(0xF10B), 6)
		if err != nil {
			t.Fatalf("cell: %v", err)
		}
		return cell
	}
	a, b := run(), run()
	if !a.deterministicEqual(b) {
		t.Fatalf("same seed diverged:\n  a=%+v\n  b=%+v", *a, *b)
	}
}

// F10b's heaviest cell — crash rate 0.05 with a cadence point after
// every commit — crashes many times, some transactions several times
// over. It must still finish every transaction with zero violations
// (crashed attempts are recovered from, not counted against the budget
// that catches crash-free failures), and its cadence must still rotate.
func TestF10StormCellCompletes(t *testing.T) {
	// RunF10 seeds cells by position: the F10a sweep (two snapshot
	// intervals per crash point), then F10b rates × intervals, of which
	// 0.05 × snap-every 1 is the seventh.
	k := 2*len(faults.CrashPoints()) + 7
	cell, err := runF10StormCell(k, 0.05, 1)
	if err != nil {
		t.Fatalf("storm cell: %v", err)
	}
	if cell.Crashes == 0 {
		t.Fatal("storm cell injected no crashes")
	}
	if cell.Rotations == 0 {
		t.Fatal("storm cell's cadence wrote no snapshot: rotations went untested")
	}
	if cell.Accepted != cell.Transactions {
		t.Fatalf("accepted %d of %d transactions", cell.Accepted, cell.Transactions)
	}
	if cell.Violations != 0 {
		t.Fatalf("storm cell reported %d invariant violations", cell.Violations)
	}
}
