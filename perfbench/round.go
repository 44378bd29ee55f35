package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"unitp/internal/core"
)

// system is one workload's system under test, built fresh per round.
type system interface {
	// do runs one transaction for a client and returns the time it
	// spent inside the system's round trips (evidence minting and
	// message encoding excluded). tx is the transaction's trace ID
	// (0 when untraced).
	do(client int, t *core.Transaction, tx int64) (time.Duration, error)

	// counters reads the layer counts at a window edge.
	counters() counters

	// check is the correctness gate over every transaction the clients
	// saw succeed (warm-up included).
	check(applied []*core.Transaction) error

	// close releases the system.
	close() error
}

// counters are the layer counts read at both edges of the window.
type counters struct {
	commitSizes map[int]int         // core: group-commit batch sizes
	swept       int                 // core: expiry-sweep evictions
	pending     int                 // core: outstanding challenges
	io          map[string]ioTotals // store: traffic by role group
	held        int64               // store: bytes of the files every backend holds
	wireBytes   int64               // wire: request+response payload bytes
}

// spec is one named workload.
type spec struct {
	name     string
	clients  int // closed-loop clients
	procs    int // GOMAXPROCS for the run (0: the number of CPUs)
	warmup   int // transactions per client before the window
	measured int // transactions per client in the window
	block    int // transactions per sender (the session budget, or 1)
	accounts int
	maxCents int64
	confirms bool // transactions are confirmed by synthetic clients

	// prepare runs before the set-up clock starts (key generation).
	prepare func(env *env) error
	// build constructs the system; it is the timed set-up.
	build func(env *env, tr *tracer) (system, error)
}

// roundResult is one round's raw measurements.
type roundResult struct {
	setup     time.Duration
	window    time.Duration
	measured  int       // transactions attempted in the window
	attempted int       // ...plus warm-up
	failed    int       // failed transactions, or all of a round that failed its gate
	lat       []float64 // in-system latency per successful window transaction, ms
	cpu       time.Duration
	alloc     uint64
	mallocs   uint64
	gcCycles  uint32
	gcPause   time.Duration
	heapLive  uint64
	drift     float64
	before    counters
	after     counters
	spans     []span
	gateErr   error
	gate      time.Duration // correctness gate's own time
}

func (rr *roundResult) tps() float64 { return float64(rr.measured) / rr.window.Seconds() }

// runRound builds a fresh system, warms it, measures one window, and
// checks the outcome.
func runRound(sp *spec, env *env, round int, traced bool) (*roundResult, error) {
	streams := make([][]core.Transaction, sp.clients)
	for c := range streams {
		streams[c] = txStream(env.seed, sp.name, round, c, sp.warmup+sp.measured,
			sp.block, env.names, sp.maxCents)
	}
	if sp.prepare != nil {
		if err := sp.prepare(env); err != nil {
			return nil, err
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapBase := ms.HeapAlloc

	rr := &roundResult{}
	t0 := time.Now()
	sys, err := sp.build(env, tr)
	rr.setup = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	ok := make([][]bool, sp.clients)
	for c := range ok {
		ok[c] = make([]bool, sp.warmup+sp.measured)
	}
	warmFailed, _ := drive(sys, tr, streams, ok, 0, sp.warmup, nil)
	tr.take() // warm-up spans are not measured

	rr.before = sys.counters()
	ru0 := rusage()
	runtime.ReadMemStats(&ms)
	alloc0, mallocs0, gc0, pause0 := ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs
	done := make([]time.Duration, sp.clients*sp.measured)
	start := time.Now()
	failed, lat := drive(sys, tr, streams, ok, sp.warmup, sp.warmup+sp.measured, done)
	rr.window = time.Since(start)
	rr.cpu = rusage() - ru0
	runtime.ReadMemStats(&ms)
	rr.alloc, rr.mallocs = ms.TotalAlloc-alloc0, ms.Mallocs-mallocs0
	rr.gcCycles, rr.gcPause = ms.NumGC-gc0, time.Duration(ms.PauseTotalNs-pause0)
	rr.after = sys.counters()
	rr.spans = tr.take()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > heapBase {
		rr.heapLive = ms.HeapAlloc - heapBase
	}

	rr.measured = sp.clients * sp.measured
	rr.attempted = sp.clients * (sp.warmup + sp.measured)
	rr.failed = warmFailed + failed
	for _, l := range lat {
		rr.lat = append(rr.lat, l...)
	}
	rr.drift = driftRatio(done[:rr.measured-failed])

	var applied []*core.Transaction
	for c := range streams {
		for i := range streams[c] {
			if ok[c][i] {
				applied = append(applied, &streams[c][i])
			}
		}
	}
	g0 := time.Now()
	rr.gateErr = sys.check(applied)
	rr.gate = time.Since(g0)
	if rr.gateErr != nil {
		rr.failed = rr.attempted
	}
	if err := sys.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return rr, nil
}

// drive runs transactions [lo, hi) of every client's stream, one
// closed-loop goroutine per client, marking successes in ok. When done
// is non-nil it receives each completion's offset from the start, in
// completion order. It returns the failure count and each client's
// in-system latencies (ms), and reports the first failure.
func drive(sys system, tr *tracer, streams [][]core.Transaction, ok [][]bool, lo, hi int,
	done []time.Duration) (int, [][]float64) {
	var failed atomic.Int64
	var completed atomic.Int64
	var report sync.Once
	lat := make([][]float64, len(streams))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat[c] = make([]float64, 0, hi-lo)
			for i := lo; i < hi; i++ {
				t := &streams[c][i]
				tx := tr.newID()
				t0 := time.Now()
				in, err := sys.do(c, t, tx)
				end := time.Now()
				if err != nil {
					failed.Add(1)
					report.Do(func() { fmt.Fprintf(os.Stderr, "perfbench: tx %s failed: %v\n", t.ID, err) })
					continue
				}
				tr.add(span{name: "tx", id: tx, tx: tx, track: c, start: tr.since(t0), end: tr.since(end)})
				ok[c][i] = true
				lat[c] = append(lat[c], float64(in)/float64(time.Millisecond))
				if done != nil {
					done[completed.Add(1)-1] = end.Sub(start)
				}
			}
		}(c)
	}
	wg.Wait()
	return int(failed.Load()), lat
}

// driftRatio is the throughput of the window's last quarter of
// completions over that of its first quarter: 1 for a stationary
// system, below 1 when per-transaction cost grows during the window.
func driftRatio(done []time.Duration) float64 {
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	q := len(done) / 4
	if q == 0 {
		return 1
	}
	first := done[q-1]
	last := done[len(done)-1] - done[len(done)-1-q]
	if last <= 0 {
		return 1
	}
	return float64(first) / float64(last)
}

// rusage returns the process's user+system CPU time so far.
func rusage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
