package experiments

import (
	"os"
	"runtime/pprof"
	"testing"
)

// TestF12ProfileCell is a profiling helper, not a correctness test: run
// with F12_PROFILE=/path/to/cpu.out to profile the measured drain alone
// (prep — minting and signing the confirmations — is excluded).
func TestF12ProfileCell(t *testing.T) {
	out := os.Getenv("F12_PROFILE")
	if out == "" {
		t.Skip("set F12_PROFILE=<cpuprofile path> to run the profiling cell")
	}
	f, err := buildF12Fixture()
	if err != nil {
		t.Fatal(err)
	}
	p, cleanup, err := f.newF12Provider()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	frames, err := f.mintConfirms(p, 3000)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		t.Fatal(err)
	}
	tput, dist, err := drainConfirms(p, frames, 8, false)
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("throughput %.0f req/s, batches %v", tput, dist)
}
