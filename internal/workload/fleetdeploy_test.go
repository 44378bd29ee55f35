package workload

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"unitp/internal/netsim"
)

// A fleet whose shards' snapshots cannot fit one replication frame can
// never bootstrap a follower. NewFleet must fail at once with the
// cause, never come up with primaries serving and no replica behind
// them, and never sit out a retry budget first.
func TestNewFleetFailsOnOversizeBootstrap(t *testing.T) {
	bank := make(map[string]int64, 100_000)
	for i := 0; i < 100_000; i++ {
		bank[fmt.Sprintf("acct%06d", i)] = 1_000_000
	}
	start := time.Now()
	d, err := NewFleet(FleetConfig{Seed: 1, Shards: 2, Followers: 1, Accounts: bank})
	if d != nil || !errors.Is(err, netsim.ErrFrameTooLarge) {
		t.Fatalf("NewFleet over a 100k-account bank: deployment %v, err %v; want ErrFrameTooLarge", d != nil, err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("NewFleet took %v to fail; a bootstrap that can never succeed must not be retried", took)
	}
}
