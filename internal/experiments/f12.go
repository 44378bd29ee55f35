package experiments

import (
	"cmp"
	"crypto/rsa"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unitp/internal/attest"
	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/metrics"
	"unitp/internal/sim"
	"unitp/internal/store"
	"unitp/internal/workload"
)

// F12 measures the provider request pipeline against requests handled
// one at a time. Both arms run the same quote-confirm drain — pre-minted
// ConfirmTx frames with genuine RSA evidence, pushed through
// Provider.Handle by a worker pool over a real on-disk store — so every
// request pays full verification plus a durable WAL commit. The
// baseline arm serializes its workers on one caller-side mutex around
// Handle, so each request decodes, verifies, transitions state and
// syncs its own WAL group alone; the pipeline arm lets the workers in
// together, verifies outside the state lock and group-commits in-flight
// journals under one fsync. The gap between the arms at high worker
// counts is the figure, and the recorded commit batch sizes are the
// mechanism: the baseline's must be all 1 (one sync per request), and
// the pipeline's batches above 1 are exactly the syncs the baseline
// paid separately.

// f12Txs is the number of pre-minted confirmations drained per cell.
const f12Txs = 1000

// f12Reps is how many times each arm is measured per worker count. Real
// wall-clock cells on a shared host see GC, scheduler and disk noise
// worth tens of percent, so the arms' reps are interleaved (a noisy
// stretch lands on both arms, not one) and each arm is rated by its
// median rep.
const f12Reps = 5

// f12KeyBits sizes the synthetic CA/EK/AIK keys. 1024-bit keys keep
// the verify stage cheap relative to the fsync so the experiment
// isolates commit batching; the pipeline's verify-stage win only grows
// with production-size keys.
const f12KeyBits = 1024

// f12Workers is the concurrency sweep.
var f12Workers = []int{1, 2, 4, 8}

// f12Fixture is the client side of the drain: one certified synthetic
// platform whose evidence every cell's provider accepts.
type f12Fixture struct {
	caPub   *rsa.PublicKey
	client  *workload.SyntheticClient
	palMeas cryptoutil.Digest
}

// buildF12Fixture enrolls one synthetic platform with a throwaway CA.
func buildF12Fixture() (*f12Fixture, error) {
	caKey, err := cryptoutil.GenerateRSAKey(sim.NewRand(seedFor("f12-ca", 0)), f12KeyBits)
	if err != nil {
		return nil, err
	}
	ca := attest.NewPrivacyCA("f12-ca", caKey, nil, sim.NewRand(seedFor("f12-ca", 1)))
	palMeas := cryptoutil.SHA1([]byte("f12-confirm-pal"))
	client, err := workload.NewSyntheticClient(ca, "f12-platform", palMeas,
		sim.NewRand(seedFor("f12-client", 0)), f12KeyBits)
	if err != nil {
		return nil, err
	}
	return &f12Fixture{caPub: ca.PublicKey(), client: client, palMeas: palMeas}, nil
}

// newF12Provider builds one cell: a provider over a real directory
// store (genuine fsyncs), challenging every transaction.
func (f *f12Fixture) newF12Provider() (*core.Provider, func(), error) {
	dir, err := os.MkdirTemp("", "unitp-f12-*")
	if err != nil {
		return nil, nil, err
	}
	backend, err := store.OpenDir(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	st, err := store.Open(backend)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	p := core.NewProvider(core.ProviderConfig{
		Name:   "f12",
		CAPub:  f.caPub,
		Clock:  sim.WallClock{},
		Random: sim.NewRand(seedFor("f12-provider", 0)),
	})
	p.Verifier().ApprovePAL(core.ConfirmPALName, f.palMeas)
	cleanup := func() {
		st.Close()
		os.RemoveAll(dir)
	}
	for acct, cents := range map[string]int64{"alice": 1 << 40, "bob": 0} {
		if err := p.Ledger().CreateAccount(acct, cents); err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	if err := p.AttachStore(st); err != nil {
		cleanup()
		return nil, nil, err
	}
	return p, cleanup, nil
}

// mintConfirms submits n transactions and signs a confirmation for each
// challenge — the unmeasured prep that leaves n ready-to-drain frames.
func (f *f12Fixture) mintConfirms(p *core.Provider, n int) ([][]byte, error) {
	frames := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		tx := &core.Transaction{
			ID: fmt.Sprintf("f12-%d", i), From: "alice", To: "bob",
			AmountCents: 1, Currency: "EUR",
		}
		req, err := core.EncodeMessage(&core.SubmitTx{Tx: tx})
		if err != nil {
			return nil, err
		}
		resp, err := p.Handle(req)
		if err != nil {
			return nil, err
		}
		msg, err := core.DecodeMessage(resp)
		if err != nil {
			return nil, err
		}
		ch, ok := msg.(*core.Challenge)
		if !ok {
			return nil, fmt.Errorf("experiments: f12 submit %d: got %T, want challenge", i, msg)
		}
		evidence, err := f.client.ConfirmEvidence(ch.Nonce, ch.Tx.Digest(), true)
		if err != nil {
			return nil, err
		}
		frame, err := core.EncodeMessage(&core.ConfirmTx{
			Nonce: ch.Nonce, Confirmed: true, Mode: core.ModeQuote, Evidence: evidence,
		})
		if err != nil {
			return nil, err
		}
		frames = append(frames, frame)
	}
	return frames, nil
}

// drainConfirms pushes the prepared frames through Handle with the
// given worker count and returns requests/sec plus the commit batch
// sizes the drain produced. serial makes the workers take turns on one
// mutex around Handle: the baseline arm, one request in the provider at
// a time.
func drainConfirms(p *core.Provider, frames [][]byte, workers int, serial bool) (float64, map[int]int, error) {
	// Settle the garbage minting left behind (a thousand RSA signatures)
	// so collection triggered by prep debt doesn't land inside the
	// measured window — the same hygiene testing.B applies before timing.
	runtime.GC()
	before := p.CommitBatchSizes()
	handle := p.Handle
	if serial {
		var turn sync.Mutex
		handle = func(req []byte) ([]byte, error) {
			turn.Lock()
			defer turn.Unlock()
			return p.Handle(req)
		}
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		fail error
	)
	responses := make([][]byte, len(frames))
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(frames) {
					return
				}
				resp, err := handle(frames[i])
				if err != nil {
					mu.Lock()
					if fail == nil {
						fail = err
					}
					mu.Unlock()
					return
				}
				responses[i] = resp
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if fail != nil {
		return 0, nil, fail
	}
	// Outcome checking is harness work, not provider work: it runs
	// outside the timed window so both arms are measured on exactly the
	// request path.
	for i, resp := range responses {
		msg, err := core.DecodeMessage(resp)
		if err != nil {
			return 0, nil, err
		}
		out, ok := msg.(*core.Outcome)
		if !ok || !out.Accepted {
			return 0, nil, fmt.Errorf("experiments: f12 confirm %d not accepted: %+v", i, msg)
		}
	}
	dist := map[int]int{}
	for size, count := range p.CommitBatchSizes() {
		if d := count - before[size]; d > 0 {
			dist[size] = d
		}
	}
	return float64(len(frames)) / elapsed.Seconds(), dist, nil
}

// f12Rep is one measured drain: its throughput and the commit batch
// sizes it produced.
type f12Rep struct {
	tput float64
	dist map[int]int
}

// f12Cell measures both arms at one worker count, f12Reps reps each on a
// fresh store per rep. The reps alternate arms, and so does which arm
// runs first in each pair. Each arm reports its median rep. Every
// baseline rep must have paid one sync per request — batches of exactly
// 1 — or the arm is not the baseline it claims to be.
func (f *f12Fixture) f12Cell(workers, txs int) (base, pipe f12Rep, err error) {
	var reps [2][]f12Rep // baseline, pipeline
	for rep := 0; rep < f12Reps; rep++ {
		for i := 0; i < 2; i++ {
			arm := (rep + i) % 2
			serial := arm == 0
			r, err := f.runF12Rep(serial, workers, txs)
			if err != nil {
				return f12Rep{}, f12Rep{}, err
			}
			if serial && (len(r.dist) != 1 || r.dist[1] != txs) {
				return f12Rep{}, f12Rep{}, fmt.Errorf("experiments: f12 baseline @%d workers committed %s, want 1×%d",
					workers, renderBatchDist(r.dist), txs)
			}
			reps[arm] = append(reps[arm], r)
		}
	}
	return medianRep(reps[0]), medianRep(reps[1]), nil
}

// medianRep returns the rep with the median throughput.
func medianRep(reps []f12Rep) f12Rep {
	reps = slices.Clone(reps)
	slices.SortFunc(reps, func(a, b f12Rep) int { return cmp.Compare(a.tput, b.tput) })
	return reps[len(reps)/2]
}

// runF12Rep is one measured repetition of one arm.
func (f *f12Fixture) runF12Rep(serial bool, workers, txs int) (f12Rep, error) {
	p, cleanup, err := f.newF12Provider()
	if err != nil {
		return f12Rep{}, err
	}
	defer cleanup()
	frames, err := f.mintConfirms(p, txs)
	if err != nil {
		return f12Rep{}, err
	}
	tput, dist, err := drainConfirms(p, frames, workers, serial)
	return f12Rep{tput: tput, dist: dist}, err
}

// renderBatchDist renders a batch-size histogram as "size×count" pairs.
func renderBatchDist(dist map[int]int) string {
	sizes := make([]int, 0, len(dist))
	for s := range dist {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	parts := make([]string, 0, len(sizes))
	for _, s := range sizes {
		parts = append(parts, fmt.Sprintf("%d×%d", s, dist[s]))
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, " ")
}

// RunF12 compares the three-stage request pipeline (parallel verify,
// sharded session state, WAL group commit) against the same provider
// fed one request at a time, on the quote-confirm hot path, over a real
// on-disk store so every commit pays a true fsync.
//
// Shape expectations: the serialized arm is flat-to-declining in the
// worker count (one lock, one fsync per request); the pipeline arm
// climbs as concurrent requests share group commits, reaching ≥3× the
// baseline at 8 workers; and the pipeline's recorded batch sizes go
// above 1 exactly when workers > 1 — the amortized syncs ARE the
// speedup.
func RunF12() (*Result, error) {
	fixture, err := buildF12Fixture()
	if err != nil {
		return nil, err
	}
	table := metrics.NewTable(
		fmt.Sprintf("F12: request pipeline vs one request at a time — %d quote-confirms drained per cell, median of %d interleaved reps, on-disk WAL (real wall time, GOMAXPROCS=%d)",
			f12Txs, f12Reps, runtime.GOMAXPROCS(0)),
		"workers", "baseline req/s", "pipeline req/s", "speedup")
	series := metrics.Series{Name: "pipeline-req-per-sec-vs-workers"}
	var (
		distLines  []string
		base8      float64
		pipe8      float64
		maxBatch   int
		batchTotal int
	)
	for _, workers := range f12Workers {
		baseRep, pipeRep, err := fixture.f12Cell(workers, f12Txs)
		if err != nil {
			return nil, err
		}
		base, pipe, dist := baseRep.tput, pipeRep.tput, pipeRep.dist
		if workers == 8 {
			base8, pipe8 = base, pipe
		}
		for size, count := range dist {
			if size > maxBatch {
				maxBatch = size
			}
			if size > 1 {
				batchTotal += count
			}
		}
		table.AddRow(fmt.Sprintf("%d", workers),
			fmt.Sprintf("%8.0f", base), fmt.Sprintf("%8.0f", pipe),
			fmt.Sprintf("%5.2fx", pipe/base))
		series.Add(float64(workers), pipe)
		distLines = append(distLines,
			fmt.Sprintf("baseline commit batches @%d workers: %s", workers, renderBatchDist(baseRep.dist)),
			fmt.Sprintf("pipeline commit batches @%d workers: %s", workers, renderBatchDist(dist)))
	}
	speedup := pipe8 / base8
	verdict := "PASS"
	if speedup < 3 {
		verdict = "FAIL"
	}
	batchVerdict := "PASS"
	if maxBatch <= 1 {
		batchVerdict = "FAIL"
	}
	return &Result{
		ID:    "f12",
		Title: "Request pipeline throughput",
		Text: joinSections(table.Render(), series.Render(),
			strings.Join(distLines, "\n")+"\n",
			fmt.Sprintf("speedup @8 workers: %.2fx (target ≥ 3x) — %s\n", speedup, verdict)+
				fmt.Sprintf("group commit: %d multi-request batches, largest %d (target > 1) — %s\n",
					batchTotal, maxBatch, batchVerdict)),
	}, nil
}
