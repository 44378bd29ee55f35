// Parallel benchmarks for the request pipeline (DESIGN.md §11): the
// quote-confirm hot path under concurrent clients, against a real
// on-disk store so every commit pays a true fsync. These are the
// testing.B counterpart of experiment F12 — the pipeline arm amortizes
// syncs across in-flight requests via group commit, the single-lock arm
// takes one caller-side lock around Handle and so pays one sync per
// request — reported as ns/op plus an avg reqs/commit metric showing
// the batching the drain achieved.
package unitp_test

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"unitp/internal/attest"
	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/sim"
	"unitp/internal/store"
	"unitp/internal/workload"
)

// newParallelBenchProvider builds a provider over a fresh on-disk store
// plus a synthetic platform to mint evidence (1024-bit keys: cheap
// client, full provider-side verification).
func newParallelBenchProvider(b *testing.B) (*core.Provider, *workload.SyntheticClient, func()) {
	b.Helper()
	caKey, err := cryptoutil.PooledKey(3201)
	if err != nil {
		b.Fatal(err)
	}
	ca := attest.NewPrivacyCA("bench-ca", caKey, nil, sim.NewRand(0xBE1))
	palMeas := cryptoutil.SHA1([]byte("bench-parallel-pal"))
	client, err := workload.NewSyntheticClient(ca, "bench-platform", palMeas,
		sim.NewRand(0xBE2), 1024)
	if err != nil {
		b.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "unitp-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	backend, err := store.OpenDir(dir)
	if err != nil {
		os.RemoveAll(dir)
		b.Fatal(err)
	}
	st, err := store.Open(backend)
	if err != nil {
		os.RemoveAll(dir)
		b.Fatal(err)
	}
	p := core.NewProvider(core.ProviderConfig{
		Name:   "bench",
		CAPub:  ca.PublicKey(),
		Clock:  sim.WallClock{},
		Random: sim.NewRand(0xBE3),
	})
	p.Verifier().ApprovePAL(core.ConfirmPALName, palMeas)
	if err := p.Ledger().CreateAccount("alice", 1<<40); err != nil {
		b.Fatal(err)
	}
	if err := p.Ledger().CreateAccount("bob", 0); err != nil {
		b.Fatal(err)
	}
	if err := p.AttachStore(st); err != nil {
		b.Fatal(err)
	}
	cleanup := func() {
		st.Close()
		os.RemoveAll(dir)
	}
	return p, client, cleanup
}

// mintParallelConfirms prepares n ready-to-drain ConfirmTx frames (the
// untimed prep: submit, receive challenge, sign confirmation).
func mintParallelConfirms(b *testing.B, p *core.Provider, client *workload.SyntheticClient, n int) [][]byte {
	b.Helper()
	frames := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		tx := &core.Transaction{ID: fmt.Sprintf("bench-%d", i), From: "alice", To: "bob",
			AmountCents: 1, Currency: "EUR"}
		req, err := core.EncodeMessage(&core.SubmitTx{Tx: tx})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := p.Handle(req)
		if err != nil {
			b.Fatal(err)
		}
		msg, err := core.DecodeMessage(resp)
		if err != nil {
			b.Fatal(err)
		}
		ch, ok := msg.(*core.Challenge)
		if !ok {
			b.Fatalf("submit %d: got %T, want challenge", i, msg)
		}
		evidence, err := client.ConfirmEvidence(ch.Nonce, ch.Tx.Digest(), true)
		if err != nil {
			b.Fatal(err)
		}
		frame, err := core.EncodeMessage(&core.ConfirmTx{
			Nonce: ch.Nonce, Confirmed: true, Mode: core.ModeQuote, Evidence: evidence,
		})
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// benchQuoteConfirmParallel drains b.N pre-minted confirmations through
// Handle from 8 concurrent goroutines (RunParallel distributes exactly
// b.N iterations across them); serial makes them take turns on one
// mutex around Handle.
func benchQuoteConfirmParallel(b *testing.B, serial bool) {
	p, client, cleanup := newParallelBenchProvider(b)
	defer cleanup()
	frames := mintParallelConfirms(b, p, client, b.N)
	// Minting runs through Handle too; diff the batch distribution so
	// the reported metric covers only the measured drain.
	before := p.CommitBatchSizes()
	var (
		next atomic.Int64
		turn sync.Mutex
	)
	b.SetParallelism(8) // 8 goroutines even at GOMAXPROCS=1
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)) - 1
			if serial {
				turn.Lock()
			}
			resp, err := p.Handle(frames[i])
			if serial {
				turn.Unlock()
			}
			if err != nil {
				b.Fatal(err)
			}
			msg, err := core.DecodeMessage(resp)
			if err != nil {
				b.Fatal(err)
			}
			if out, ok := msg.(*core.Outcome); !ok || !out.Accepted {
				b.Fatalf("confirm %d: %+v", i, msg)
			}
		}
	})
	b.StopTimer()
	groups, commits := 0, 0
	for size, count := range p.CommitBatchSizes() {
		d := count - before[size]
		groups += size * d
		commits += d
	}
	if commits > 0 {
		b.ReportMetric(float64(groups)/float64(commits), "reqs/commit")
	}
}

// BenchmarkQuoteConfirmParallelPipeline is the concurrent engine:
// verify outside the lock, sharded sessions, WAL group commit.
func BenchmarkQuoteConfirmParallelPipeline(b *testing.B) {
	benchQuoteConfirmParallel(b, false)
}

// BenchmarkQuoteConfirmParallelSingleLock is the serialized baseline:
// one caller-side lock around Handle, so one fsync per request.
func BenchmarkQuoteConfirmParallelSingleLock(b *testing.B) {
	benchQuoteConfirmParallel(b, true)
}
