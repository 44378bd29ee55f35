package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unitp/internal/fleet"
)

// A data dir in the retired in-process layout — one shard MANIFEST
// naming the role that holds the lineage — must be refused with an
// error naming that file, never started over as a virgin fleet whose
// member 0 would serve as primary beside the old lineage.
func TestFleetRefusesOldShardManifestLayout(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "shard-0", "manifest", "MANIFEST")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, []byte("FLM1"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := startFleetShard(&fleet.LocalNet{}, 0, fleetParams{followers: 1, dataDir: dir})
	if err == nil || !strings.Contains(err.Error(), old) {
		t.Fatalf("start over the old layout: %v, want an error naming %s", err, old)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0", "member-0")); !os.IsNotExist(err) {
		t.Fatalf("refused start still created member directories (stat: %v)", err)
	}
}
