package experiments

import (
	"strings"
	"testing"
)

// Every chaos cell — resets, corruption, truncation, partition,
// slowloris — must accept its full workload over real TCP and leave
// zero exactly-once or conservation violations behind.
func TestF14ChaosCellsExactlyOnce(t *testing.T) {
	const workers, per = 2, 6
	for k, c := range f14ChaosCases() {
		cell, err := runF14ChaosCell(seedFor("f14-test", k), k, c, workers, per)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cell.Accepted != workers*per {
			t.Errorf("%s: accepted %d of %d", c.name, cell.Accepted, workers*per)
		}
		if err := cell.Check.Err(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// Draining well above the per-peer rate limit must shed frames (not
// connections, not correctness): everything is eventually accepted,
// goodput lands inside the documented band, and the ledger audits
// clean.
func TestF14OverloadRateShedsWithinBand(t *testing.T) {
	goodput, shed, rep, err := runF14OverloadRate(4, 25)
	if err != nil {
		t.Fatal(err)
	}
	if shed == 0 {
		t.Error("no frames shed under 4x-over-limit load")
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
	low, high := f14GoodputBand[0]*f14RateLimit, f14GoodputBand[1]*f14RateLimit
	if goodput < low || goodput > high {
		t.Errorf("goodput %.0f req/s outside band %.0f..%.0f", goodput, low, high)
	}
}

// A full accept pool must shed the surplus connection with a retryable
// error, and the shed client must get through once capacity frees.
func TestF14OverloadPoolShedsAndRecovers(t *testing.T) {
	shed, retryable, recovered, err := runF14OverloadPool()
	if err != nil {
		t.Fatal(err)
	}
	if shed == 0 {
		t.Error("no connections shed by the full pool")
	}
	if !retryable {
		t.Error("pool shed was not classified retryable")
	}
	if !recovered {
		t.Error("shed client never recovered after capacity freed")
	}
}

// The side-by-side arm must complete cleanly on both transports with a
// positive throughput each (the ratio itself is host-dependent and
// informational).
func TestF14SideBySideTiny(t *testing.T) {
	text, err := f14SideBySide(4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "netsim pipe") || !strings.Contains(text, "wire TCP") {
		t.Fatalf("unexpected table:\n%s", text)
	}
}

// The TCP chaos-smoke gate (what `make chaos-smoke` runs) must pass
// with zero violations.
func TestF14ChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP chaos smoke skipped in short mode")
	}
	res, err := RunF14Smoke()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Text, "FAIL") {
		t.Fatalf("TCP chaos smoke failed:\n%s", res.Text)
	}
}
