package experiments

import (
	"strings"
	"testing"

	"unitp/internal/fleet"
)

// The multi-process chaos gate: router + one shard (primary + one
// follower) as real child processes over loopback TCP, the primary
// SIGKILLed mid-drain, one failover, and exactly-once asserted from
// the survivors' data directories. This is the `make chaos-smoke`
// multi-process cell.
func TestF15ProcSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	res, err := RunF15Smoke()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Text, "FAIL") {
		t.Fatalf("proc smoke failed:\n%s", res.Text)
	}
	t.Logf("\n%s", res.Text)
}

// The rejoin cell is the distinguishing distributed scenario: a
// SIGKILLed primary restarted with its original command line must be
// fenced by the wire handshake into a follower of the new lineage, not
// resurrected — asserted here end to end with real processes.
func TestF15DeposedPrimaryRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	row, err := f15CellByName("deposed-primary-rejoin")
	if err != nil {
		t.Fatal(err)
	}
	if err := row.rep.Err(); err != nil {
		t.Fatalf("rejoin cell: %v", err)
	}
	if row.failovers != 1 {
		t.Fatalf("rejoin cell: %d failovers, want 1", row.failovers)
	}
	if !strings.Contains(row.note, "rejoined as follower at epoch 2") {
		t.Fatalf("rejoin cell note: %q", row.note)
	}
}

// Account homing must agree with the router's ring and cover every
// shard with a seedable prefix of the workload account space.
func TestF15HomedAccountsCoverShards(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		homed, seedN := procHomedAccounts(shards)
		ring := fleet.NewRing(shards, 0)
		if len(homed) != shards {
			t.Fatalf("%d shards: %d homed accounts", shards, len(homed))
		}
		for s, name := range homed {
			if name == "" {
				t.Fatalf("%d shards: shard %d has no homed account", shards, s)
			}
			if got := ring.Shard(name); got != s {
				t.Fatalf("%d shards: %s homes to %d, want %d", shards, name, got, s)
			}
		}
		if seedN < shards {
			t.Fatalf("%d shards: seedN %d cannot cover", shards, seedN)
		}
	}
}
