package experiments

import (
	"fmt"
	"strings"
	"testing"

	"unitp/internal/faults"
)

// Every matrix cell must accept its full workload, produce exactly the
// failover count its fault plan implies (enforced inside the cell), and
// leave zero exactly-once or conservation violations behind.
func TestF13MatrixCells(t *testing.T) {
	for k, c := range f13MatrixCases() {
		cell, err := runF13MatrixCell(seedFor("f13-test", k), c, 4)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cell.Accepted != 4 {
			t.Errorf("%s: accepted %d of 4", c.name, cell.Accepted)
		}
		if cell.Violations != 0 {
			t.Errorf("%s: %d violations", c.name, cell.Violations)
		}
	}
}

// Same seed, same cell → bit-identical summary, including the fault
// plan's activity counters, through two failovers.
func TestF13MatrixDeterministic(t *testing.T) {
	cases := f13MatrixCases()
	killTwice := cases[len(cases)-1]
	a, err := runF13MatrixCell(seedFor("f13-det", 0), killTwice, 6)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := runF13MatrixCell(seedFor("f13-det", 0), killTwice, 6)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("seeded runs diverged:\n  %+v\n  %+v", a, b)
	}
}

// Killing a primary mid-drain under concurrent load must fail over
// exactly once and keep fleet-wide exactly-once: zero lost, zero
// doubled, balances conserved.
func TestF13KillUnderLoadExactlyOnce(t *testing.T) {
	for _, phase := range []faults.KillPhase{faults.KillBeforeShip, faults.KillAfterShip} {
		accepted, failovers, rep, _, err := f13KillLoadCell(
			phase, 2, 25, false, "f13-load-test-"+phase.String())
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		want := 2 * f13Workers * 25
		if accepted != want {
			t.Errorf("%s: accepted %d of %d", phase, accepted, want)
		}
		if failovers != 1 {
			t.Errorf("%s: %d failovers, want 1", phase, failovers)
		}
		if err := rep.Err(); err != nil {
			t.Errorf("%s: %v", phase, err)
		}
	}
}

// The chaos-smoke gate (what `make chaos-smoke` runs) must pass with
// zero violations.
func TestF13ChaosSmoke(t *testing.T) {
	res, err := RunF13Smoke()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Text, "FAIL") {
		t.Fatalf("chaos smoke failed:\n%s", res.Text)
	}
}

// The model arm is fully deterministic (sequential drain, priced
// costs): two runs must agree to the bit, and sharding must help —
// the 8-shard fleet's modelled makespan must beat a single shard's by
// the figure's ≥3× bar.
func TestF13ScaleModelDeterministicAndScales(t *testing.T) {
	a, hotA, err := f13ModelCell(8, 64, 512)
	if err != nil {
		t.Fatal(err)
	}
	b, hotB, err := f13ModelCell(8, 64, 512)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || hotA != hotB {
		t.Fatalf("model runs diverged: (%v,%v) vs (%v,%v)", a, hotA, b, hotB)
	}
	single, _, err := f13ModelCell(1, 64, 512)
	if err != nil {
		t.Fatal(err)
	}
	if a/single < 3 {
		t.Fatalf("modelled scale at 8 shards = %.2fx, want ≥ 3x", a/single)
	}
}

// A tiny on-disk scaling cell exercises the real-fsync path end to end;
// the full sweep (and its ≥3× verdict) runs only under tpbench.
func TestF13ScaleTinyOnDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("on-disk scaling cell skipped in short mode")
	}
	tput, err := f13ScaleCell(2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tput <= 0 {
		t.Fatalf("throughput %v", tput)
	}
}
