package experiments

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"unitp/internal/check"
	"unitp/internal/core"
	"unitp/internal/faults"
	"unitp/internal/metrics"
	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/sim"
	"unitp/internal/wire"
)

// F14 evaluates the hardened real wire transport (internal/wire) under
// socket-level chaos. Three arms:
//
//   - F14a, TCP chaos matrix: an auto-accept provider behind a
//     wire.Server, reached through the faults.Proxy chaos middlebox
//     over genuine loopback TCP. Cells inject connection resets, bit
//     corruption, mid-stream truncation, a partition window opened
//     mid-drain, and slowloris throttling while supervised clients
//     (wire.Client + RetryTransport) drain a fixed workload. The oracle
//     is internal/check: every submitted transaction executes exactly
//     once and balances reconcile (the audit-chain rule is vacuous:
//     auto-accepted transfers write no audit entry, and the table's
//     violations column says so) — losses
//     and resubmissions must be absorbed by fail-fast supervision,
//     retry classification, and the provider's idempotence, never by
//     double execution.
//
//   - F14b, overload shedding: the per-peer token bucket sheds request
//     frames above the configured rate with retryable error frames, so
//     goodput settles near the limit instead of collapsing; and a full
//     accept pool sheds whole connections, which recover as soon as
//     capacity frees up.
//
//   - F14c, netsim vs TCP: the same auto-accept drain through the
//     in-process netsim pipe and through the real TCP transport, side
//     by side, pricing what the socket path costs.

// f14Workers is the concurrent client count of the chaos cells.
const f14Workers = 4

// f14TxsPerWorker is the per-client transaction count of the full
// chaos matrix.
const f14TxsPerWorker = 25

// f14Accounts is every F14 provider's ledger at start, which the checker
// reconciles each drain against.
var f14Accounts = map[string]int64{"payer": 1 << 30, "sink": 1 << 30}

// f14FrameAttempts bounds a worker's resubmissions of one frame across
// retry-policy runs (each run is itself several attempts with backoff).
const f14FrameAttempts = 60

// f14PartitionWindow is how long the mid-drain partition stays open.
const f14PartitionWindow = 250 * time.Millisecond

// f14RateLimit / f14RateBurst parameterize the overload-shedding cell,
// and f14GoodputBand is the documented acceptance band: goodput must
// land within [low, high]× the configured per-peer rate (the burst
// bucket and retry backoff put it near, not at, the limit).
const (
	f14RateLimit = 150.0
	f14RateBurst = 25
)

var f14GoodputBand = [2]float64{0.3, 2.0}

// ---------------------------------------------------------------------
// Fixture: a lean provider behind a real wire.Server
// ---------------------------------------------------------------------

// f14Server is one live TCP server hosting an auto-accept provider.
type f14Server struct {
	provider *core.Provider
	server   *wire.Server
	reg      *obs.Registry
	addr     string
	done     chan error
}

// startF14Server boots the provider and serves it over loopback TCP.
// tweak mutates the hardening knobs before the server starts.
func startF14Server(tag string, tweak func(*wire.ServerConfig)) (*f14Server, error) {
	p := core.NewProvider(core.ProviderConfig{
		Name:                  "f14-" + tag,
		Clock:                 sim.WallClock{},
		Random:                sim.NewRand(seedFor("f14-provider-"+tag, 0)),
		ConfirmThresholdCents: 1_000_000, // every drain tx auto-accepts
	})
	for name, cents := range f14Accounts {
		if err := p.Ledger().CreateAccount(name, cents); err != nil {
			return nil, err
		}
	}
	reg := obs.NewRegistry()
	cfg := wire.ServerConfig{
		Handler:      p.Handle,
		Workers:      f14Workers,
		Metrics:      reg,
		IdleTimeout:  10 * time.Second,
		WriteTimeout: 5 * time.Second,
		DrainTimeout: 5 * time.Second,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	srv := wire.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return &f14Server{
		provider: p,
		server:   srv,
		reg:      reg,
		addr:     ln.Addr().String(),
		done:     done,
	}, nil
}

// stop drains the server and waits the accept loop out.
func (s *f14Server) stop() error {
	err := s.server.Shutdown()
	if serveErr := <-s.done; err == nil {
		err = serveErr
	}
	return err
}

// f14Mint pre-encodes each worker's SubmitTx frames (1 cent payer→sink,
// auto-accepted under the threshold).
func f14Mint(tag string, workers, per int) ([][][]byte, error) {
	frames := make([][][]byte, 0, workers)
	for w := 0; w < workers; w++ {
		wf := make([][]byte, 0, per)
		for k := 0; k < per; k++ {
			frame, err := core.EncodeMessage(&core.SubmitTx{Tx: &core.Transaction{
				ID:   fmt.Sprintf("f14-%s-w%d-%d", tag, w, k),
				From: "payer", To: "sink", AmountCents: 1, Currency: "EUR",
			}})
			if err != nil {
				return nil, err
			}
			wf = append(wf, frame)
		}
		frames = append(frames, wf)
	}
	return frames, nil
}

// f14RetryPolicy is the cells' retry shape: fast backoff sized to the
// fault windows, so a cell's wall time stays in seconds.
func f14RetryPolicy() netsim.RetryPolicy {
	return netsim.RetryPolicy{
		MaxAttempts:    6,
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
		Multiplier:     2,
		Jitter:         0.2,
		AttemptTimeout: 2 * time.Second,
		Deadline:       20 * time.Second,
	}
}

// f14NewClient builds one supervised transport aimed at addr, with
// reconnect pacing sized to the cells.
func f14NewClient(addr string, reg *obs.Registry) *wire.Client {
	return wire.NewClient(wire.ClientConfig{
		Addr:            addr,
		ResponseTimeout: 2 * time.Second,
		WriteTimeout:    2 * time.Second,
		DialTimeout:     2 * time.Second,
		ReconnectMin:    2 * time.Millisecond,
		ReconnectMax:    100 * time.Millisecond,
		Metrics:         reg,
	})
}

// f14Drain pushes every worker's frames through its own supervised
// client concurrently. A frame is resubmitted until an Outcome accepts
// it — across connection deaths, sheds, and partitions — relying on the
// provider's ID-keyed idempotence for single execution. It returns the
// accepted count and the drain's wall time.
func f14Drain(addr string, frames [][][]byte, cliReg *obs.Registry, progress *atomic.Int64) (int, time.Duration, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		fail     error
		accepted int
	)
	start := time.Now()
	for i, wf := range frames {
		wg.Add(1)
		go func(idx int, wf [][]byte) {
			defer wg.Done()
			client := f14NewClient(addr, cliReg)
			defer client.Close()
			rt := netsim.NewRetryTransport(client, f14RetryPolicy(),
				sim.WallClock{}, sim.NewRand(seedFor("f14-rt", idx)))
			ok := 0
			for _, frame := range wf {
				var lastErr error
				done := false
				for attempt := 0; attempt < f14FrameAttempts && !done; attempt++ {
					resp, err := rt.RoundTrip(frame)
					if err != nil {
						lastErr = err
						time.Sleep(10 * time.Millisecond)
						continue
					}
					msg, err := core.DecodeMessage(resp)
					if err != nil {
						lastErr = err
						continue
					}
					out, isOut := msg.(*core.Outcome)
					if !isOut || !out.Accepted {
						lastErr = fmt.Errorf("f14: drain got %T accepted=%v", msg, isOut && out.Accepted)
						continue
					}
					done = true
				}
				if !done {
					mu.Lock()
					if fail == nil {
						fail = fmt.Errorf("f14: frame never accepted: %w", lastErr)
					}
					mu.Unlock()
					return
				}
				ok++
				if progress != nil {
					progress.Add(1)
				}
			}
			mu.Lock()
			accepted += ok
			mu.Unlock()
		}(i, wf)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if fail != nil {
		return 0, 0, fail
	}
	return accepted, elapsed, nil
}

// ---------------------------------------------------------------------
// F14a: TCP chaos matrix
// ---------------------------------------------------------------------

// f14Cell is one chaos cell's outcome.
type f14Cell struct {
	Name       string
	Txs        int
	Accepted   int
	Stats      faults.ProxyStats
	Reconnects int64
	ConnFails  int64
	Check      *check.Report
}

// f14ChaosCase arms one proxy configuration (and optionally a
// mid-drain partition window).
type f14ChaosCase struct {
	name      string
	tune      func(*faults.ProxyConfig)
	partition bool
}

func f14ChaosCases() []f14ChaosCase {
	return []f14ChaosCase{
		{name: "baseline (clean proxy)"},
		{name: "connection resets (2%/chunk)",
			tune: func(c *faults.ProxyConfig) { c.ResetRate = 0.02 }},
		{name: "bit corruption (2%/chunk)",
			tune: func(c *faults.ProxyConfig) { c.CorruptRate = 0.02 }},
		{name: "truncation (2%/chunk)",
			tune: func(c *faults.ProxyConfig) { c.TruncateRate = 0.02 }},
		{name: fmt.Sprintf("partition window (%s mid-drain)", f14PartitionWindow),
			partition: true},
		{name: "slowloris (32 KiB/s)",
			tune: func(c *faults.ProxyConfig) { c.ThrottleBytesPerSec = 32 << 10 }},
	}
}

// f14StatsSummary renders the proxy's fault activity for a table cell.
func f14StatsSummary(st faults.ProxyStats) string {
	return fmt.Sprintf("conns=%d resets=%d corrupt=%d trunc=%d severed=%d refused=%d",
		st.Conns, st.Resets, st.Corrupted, st.Truncated, st.Severed, st.Refused)
}

// runF14ChaosCell drives one cell: provider behind wire.Server, chaos
// proxy in the middle, supervised clients draining through it.
func runF14ChaosCell(seed uint64, k int, c f14ChaosCase, workers, per int) (*f14Cell, error) {
	tag := fmt.Sprintf("chaos%d", k)
	srv, err := startF14Server(tag, nil)
	if err != nil {
		return nil, err
	}
	pcfg := faults.ProxyConfig{Target: srv.addr, Rng: sim.NewRand(seed)}
	if c.tune != nil {
		c.tune(&pcfg)
	}
	proxy := faults.NewProxy(pcfg)
	paddr, err := proxy.Start("127.0.0.1:0")
	if err != nil {
		srv.stop()
		return nil, err
	}
	frames, err := f14Mint(tag, workers, per)
	if err != nil {
		proxy.Close()
		srv.stop()
		return nil, err
	}
	total := workers * per

	var progress atomic.Int64
	var ctlWG sync.WaitGroup
	if c.partition {
		// Sever every flow once a third of the workload has landed; heal
		// after the window and let supervision reconnect through.
		ctlWG.Add(1)
		go func() {
			defer ctlWG.Done()
			for progress.Load() < int64(total/3) {
				time.Sleep(2 * time.Millisecond)
			}
			proxy.Partition()
			time.Sleep(f14PartitionWindow)
			proxy.Heal()
		}()
	}

	cliReg := obs.NewRegistry()
	accepted, _, drainErr := f14Drain(paddr, frames, cliReg, &progress)
	ctlWG.Wait()
	stats := proxy.Stats()
	proxy.Close()
	if err := srv.stop(); drainErr == nil && err != nil {
		drainErr = fmt.Errorf("f14: %s: server drain: %w", c.name, err)
	}
	if drainErr != nil {
		return nil, fmt.Errorf("f14: %s: %w", c.name, drainErr)
	}
	snap := cliReg.Snapshot()
	return &f14Cell{
		Name:       c.name,
		Txs:        total,
		Accepted:   accepted,
		Stats:      stats,
		Reconnects: snap.Counters["wire.client.reconnects"],
		ConnFails:  snap.Counters["wire.client.conn_failures"],
		Check:      check.Run(submitted(frames), []check.Shard{{Provider: srv.provider, Initial: f14Accounts}}),
	}, nil
}

// f14ChaosMatrix runs every chaos cell and renders the table.
func f14ChaosMatrix(workers, per int) (string, int, error) {
	table := metrics.NewTable(
		fmt.Sprintf("F14a: TCP chaos matrix — auto-accept provider behind wire.Server, faults.Proxy middlebox, %d supervised clients × %d txs per cell (real loopback sockets, wall time)",
			workers, per),
		"cell", "txs", "accepted", "proxy activity", "reconnects", "conn failures", "violations")
	totalViolations := 0
	for k, c := range f14ChaosCases() {
		cell, err := runF14ChaosCell(seedFor("f14a", k), k, c, workers, per)
		if err != nil {
			return "", 0, err
		}
		totalViolations += len(cell.Check.Violations)
		table.AddRow(cell.Name, fmt.Sprintf("%d", cell.Txs), fmt.Sprintf("%d", cell.Accepted),
			f14StatsSummary(cell.Stats), fmt.Sprintf("%d", cell.Reconnects),
			fmt.Sprintf("%d", cell.ConnFails), checkCell(cell.Check))
	}
	return table.Render(), totalViolations, nil
}

// ---------------------------------------------------------------------
// F14b: overload shedding
// ---------------------------------------------------------------------

// runF14OverloadRate drains well above the per-peer rate limit and
// measures where goodput settles. Shed frames are retryable error
// frames, so the drain completes — slower, never wrongly.
func runF14OverloadRate(workers, per int) (goodput float64, shed int64, rep *check.Report, err error) {
	srv, err := startF14Server("rate", func(cfg *wire.ServerConfig) {
		cfg.PeerFramesPerSec = f14RateLimit
		cfg.PeerBurst = f14RateBurst
	})
	if err != nil {
		return 0, 0, nil, err
	}
	frames, err := f14Mint("rate", workers, per)
	if err != nil {
		srv.stop()
		return 0, 0, nil, err
	}
	accepted, elapsed, err := f14Drain(srv.addr, frames, obs.NewRegistry(), nil)
	if err != nil {
		srv.stop()
		return 0, 0, nil, err
	}
	if stopErr := srv.stop(); stopErr != nil {
		return 0, 0, nil, stopErr
	}
	if accepted != workers*per {
		return 0, 0, nil, fmt.Errorf("f14b: accepted %d of %d", accepted, workers*per)
	}
	shed = srv.reg.Snapshot().Counters["wire.rate_limited"]
	rep = check.Run(submitted(frames), []check.Shard{{Provider: srv.provider, Initial: f14Accounts}})
	return float64(accepted) / elapsed.Seconds(), shed, rep, nil
}

// runF14OverloadPool exhausts a 2-connection accept pool, verifies the
// surplus connection is shed with a retryable error frame, and that it
// recovers as soon as a slot frees.
func runF14OverloadPool() (shed int64, sheddedRetryable, recovered bool, err error) {
	srv, err := startF14Server("pool", func(cfg *wire.ServerConfig) {
		cfg.MaxConns = 2
	})
	if err != nil {
		return 0, false, false, err
	}
	defer srv.stop()

	frames, err := f14Mint("pool", 3, 2)
	if err != nil {
		return 0, false, false, err
	}

	// Two hogs occupy the whole pool.
	hogs := make([]*wire.Client, 2)
	for i := range hogs {
		hogs[i] = f14NewClient(srv.addr, nil)
		if _, err := hogs[i].RoundTrip(frames[i][0]); err != nil {
			return 0, false, false, fmt.Errorf("f14b: hog %d: %w", i, err)
		}
	}

	// The latecomer is refused with a retryable overload frame.
	late := f14NewClient(srv.addr, nil)
	defer late.Close()
	_, lateErr := late.RoundTrip(frames[2][0])
	if lateErr == nil {
		for i := range hogs {
			hogs[i].Close()
		}
		return 0, false, false, errors.New("f14b: full pool accepted a third connection")
	}
	sheddedRetryable = netsim.DefaultRetryable(lateErr)
	shed = srv.reg.Snapshot().Counters["wire.conns_shed"]

	// Capacity frees; the same client's retries must get through.
	for i := range hogs {
		hogs[i].Close()
	}
	rt := netsim.NewRetryTransport(late, f14RetryPolicy(), sim.WallClock{}, sim.NewRand(seedFor("f14-pool", 0)))
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := rt.RoundTrip(frames[2][1]); err == nil {
			recovered = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return shed, sheddedRetryable, recovered, nil
}

// f14Overload runs both shedding cells and renders the section.
func f14Overload(workers, per int) (string, bool, error) {
	goodput, shedFrames, rep, err := runF14OverloadRate(workers, per)
	if err != nil {
		return "", false, err
	}
	shedConns, retryable, recovered, err := runF14OverloadPool()
	if err != nil {
		return "", false, err
	}
	low, high := f14GoodputBand[0]*f14RateLimit, f14GoodputBand[1]*f14RateLimit
	table := metrics.NewTable(
		fmt.Sprintf("F14b: overload shedding — %d clients × %d txs against a %.0f frames/s per-peer limit (burst %d), and a 3rd connection against a 2-slot accept pool",
			workers, per, f14RateLimit, f14RateBurst),
		"cell", "shed", "outcome")
	table.AddRow("frame rate limit",
		fmt.Sprintf("%d frames", shedFrames),
		fmt.Sprintf("goodput %.0f req/s (band %.0f..%.0f), violations %s", goodput, low, high, checkCell(rep)))
	table.AddRow("accept pool exhausted",
		fmt.Sprintf("%d conns", shedConns),
		fmt.Sprintf("shed classified retryable=%v, recovered after capacity freed=%v", retryable, recovered))
	pass := shedFrames > 0 && goodput >= low && goodput <= high && len(rep.Violations) == 0 &&
		shedConns > 0 && retryable && recovered
	return table.Render(), pass, nil
}

// ---------------------------------------------------------------------
// F14c: netsim vs TCP, side by side
// ---------------------------------------------------------------------

// f14Push drives the frames through one shared transport (no outer
// resubmission: these arms run clean) and returns aggregate req/s.
func f14Push(rt netsim.Transport, frames [][][]byte) (float64, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		fail error
	)
	start := time.Now()
	for _, wf := range frames {
		wg.Add(1)
		go func(wf [][]byte) {
			defer wg.Done()
			for _, frame := range wf {
				resp, err := rt.RoundTrip(frame)
				if err == nil {
					var msg any
					if msg, err = core.DecodeMessage(resp); err == nil {
						if out, ok := msg.(*core.Outcome); !ok || !out.Accepted {
							err = fmt.Errorf("f14c: got %T", msg)
						}
					}
				}
				if err != nil {
					mu.Lock()
					if fail == nil {
						fail = err
					}
					mu.Unlock()
					return
				}
			}
		}(wf)
	}
	wg.Wait()
	if fail != nil {
		return 0, fail
	}
	total := 0
	for _, wf := range frames {
		total += len(wf)
	}
	return float64(total) / time.Since(start).Seconds(), nil
}

// f14SideBySide prices the socket path: the same drain through the
// in-process pipe and through real TCP (one pipelined connection).
func f14SideBySide(workers, per int) (string, error) {
	// Arm 1: in-process netsim pipe, no modelled link cost.
	p := core.NewProvider(core.ProviderConfig{
		Name:                  "f14-pipe",
		Clock:                 sim.WallClock{},
		Random:                sim.NewRand(seedFor("f14c-pipe", 0)),
		ConfirmThresholdCents: 1_000_000,
	})
	for name, cents := range f14Accounts {
		if err := p.Ledger().CreateAccount(name, cents); err != nil {
			return "", err
		}
	}
	pipe := netsim.NewPipe(netsim.Config{
		Clock:  sim.WallClock{},
		Random: sim.NewRand(seedFor("f14c-rng", 0)),
		Link:   netsim.Link{Name: "in-process"},
	}, p.Handle)
	pipeFrames, err := f14Mint("pipe", workers, per)
	if err != nil {
		return "", err
	}
	pipeTput, err := f14Push(pipe, pipeFrames)
	if err != nil {
		return "", err
	}
	if err := check.Run(submitted(pipeFrames), []check.Shard{{Provider: p, Initial: f14Accounts}}).Err(); err != nil {
		return "", fmt.Errorf("f14c: pipe arm: %w", err)
	}

	// Arm 2: the same drain over real TCP, all workers pipelining on
	// one supervised connection.
	srv, err := startF14Server("tcp", nil)
	if err != nil {
		return "", err
	}
	client := f14NewClient(srv.addr, nil)
	tcpFrames, err := f14Mint("tcp", workers, per)
	if err != nil {
		client.Close()
		srv.stop()
		return "", err
	}
	tcpTput, pushErr := f14Push(
		netsim.NewRetryTransport(client, f14RetryPolicy(), sim.WallClock{}, sim.NewRand(seedFor("f14c-tcp", 0))),
		tcpFrames)
	client.Close()
	if err := srv.stop(); pushErr == nil && err != nil {
		pushErr = err
	}
	if pushErr != nil {
		return "", pushErr
	}
	if err := check.Run(submitted(tcpFrames), []check.Shard{{Provider: srv.provider, Initial: f14Accounts}}).Err(); err != nil {
		return "", fmt.Errorf("f14c: tcp arm: %w", err)
	}

	table := metrics.NewTable(
		fmt.Sprintf("F14c: netsim vs TCP — %d workers × %d auto-accept txs through the in-process pipe and through one pipelined loopback TCP connection (wall time; informational, host-dependent)",
			workers, per),
		"transport", "aggregate req/s", "relative")
	table.AddRow("netsim pipe (in-process)", fmt.Sprintf("%8.0f", pipeTput), " 1.00x")
	table.AddRow("wire TCP (loopback, pipelined)", fmt.Sprintf("%8.0f", tcpTput),
		fmt.Sprintf("%5.2fx", tcpTput/pipeTput))
	return table.Render(), nil
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

// RunF14 runs all three arms.
//
// Shape expectations: zero exactly-once violations across every chaos
// cell — resets, corruption, truncation, partitions, and slowloris are
// absorbed by supervision + retries + idempotence, never producing a
// lost or doubled confirmation; overload shedding engages (nonzero shed
// counts) with goodput inside the documented band around the rate
// limit; and the TCP-vs-pipe table prices the real socket path.
func RunF14() (*Result, error) {
	chaos, chaosViolations, err := f14ChaosMatrix(f14Workers, f14TxsPerWorker)
	if err != nil {
		return nil, err
	}
	overload, overloadPass, err := f14Overload(6, 60)
	if err != nil {
		return nil, err
	}
	side, err := f14SideBySide(8, 250)
	if err != nil {
		return nil, err
	}

	exactlyOnce := "PASS"
	if chaosViolations != 0 {
		exactlyOnce = "FAIL"
	}
	shedVerdict := "PASS"
	if !overloadPass {
		shedVerdict = "FAIL"
	}
	return &Result{
		ID:    "f14",
		Title: "Hardened TCP transport under socket-level chaos",
		Text: joinSections(chaos, overload, side,
			fmt.Sprintf("exactly-once over TCP chaos: %d violations (target 0) — %s\n", chaosViolations, exactlyOnce)+
				fmt.Sprintf("overload shedding engaged with goodput in %.1f..%.1fx of the %.0f/s limit — %s\n",
					f14GoodputBand[0], f14GoodputBand[1], f14RateLimit, shedVerdict)),
	}, nil
}

// RunF14Smoke is the truncated TCP-chaos gate for `make chaos-smoke`:
// the full fault matrix at a reduced transaction count plus the
// rate-limit shedding cell, failing on any lost or doubled transaction.
func RunF14Smoke() (*Result, error) {
	chaos, chaosViolations, err := f14ChaosMatrix(2, 8)
	if err != nil {
		return nil, err
	}
	goodput, shed, rateRep, err := runF14OverloadRate(4, 15)
	if err != nil {
		return nil, err
	}
	rateViolations := len(rateRep.Violations)
	verdict := "PASS"
	if chaosViolations+rateViolations != 0 || shed == 0 {
		verdict = "FAIL"
	}
	return &Result{
		ID:    "f14-smoke",
		Title: "TCP chaos smoke",
		Text: joinSections(chaos,
			fmt.Sprintf("smoke overload: goodput %.0f req/s, %d frames shed, violations %s\n", goodput, shed, checkCell(rateRep)),
			fmt.Sprintf("TCP chaos smoke: %d violations (target 0) — %s\n", chaosViolations+rateViolations, verdict)),
	}, nil
}
