// Command perfbench is the repository's benchmark: one command that runs
// a named workload against the provider, checks every output for
// correctness, and prints each end-to-end metric (or, with -trace 1,
// each per-layer metric) by name and unit as one JSON line.
//
// A run repeats rounds until -seconds have passed. Each round builds a
// fresh system from the seed (timed as set-up), drives a fixed warm-up
// and then a fixed number of transactions from closed-loop clients (the
// timed window), and runs the correctness gate. The window is a fixed
// transaction count, never a fixed duration: the provider's per-
// transaction cost grows with the number of answered challenges it
// retains, so only equal counts compare. Throughput, CPU per
// transaction and latency percentiles are pooled over the rounds'
// windows; the other metrics are medians over rounds.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench -workload quote-verify -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(specNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measure for about this many seconds (whole rounds)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the traced run's Chrome trace")
	flag.Parse()

	sp, ok := specs[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(specNames(), ", "))
		os.Exit(2)
	}
	if sp.procs > 0 {
		runtime.GOMAXPROCS(sp.procs)
	}
	res, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func specNames() []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one invocation: the fleet bootstrap probe, then rounds
// until the time budget is spent, then the aggregate.
func run(sp *spec, seed int64, budget time.Duration, traced bool, out string) (*result, error) {
	t0 := time.Now()
	env, err := newEnv(sp, seed)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := probeFleetBootstrap(env); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: keys and clients %.2fs, fleet bootstrap probe %.2fs\n",
		t1.Sub(t0).Seconds(), time.Since(t1).Seconds())

	var plain, withTrace []*roundResult
	var samples spanSamples
	var firstSpans []span // the first traced round's, for the Chrome trace
	start := time.Now()
	for round := 0; ; round++ {
		// A traced run alternates untraced and traced rounds: the
		// untraced ones give the counts and the tracing overhead.
		tr := traced && round%2 == 1
		rr, err := runRound(sp, env, round, tr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		if tr {
			withTrace = append(withTrace, rr)
			samples.add(rr.spans)
			if firstSpans == nil {
				firstSpans = rr.spans
			}
			rr.spans = nil
		} else {
			plain = append(plain, rr)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s round %d traced=%v setup=%.4fs window=%.3fs gate=%.3fs tx/s=%.1f p50=%.5fms p90=%.5fms p99=%.4fms cpu=%.3fus ok=%v\n",
			sp.name, round, tr, rr.setup.Seconds(), rr.window.Seconds(), rr.gate.Seconds(), rr.tps(), median(rr.lat), quantile(rr.lat, 0.90), quantile(rr.lat, 0.99), perTx(micros(rr.cpu), rr.measured), rr.gateErr == nil)
		if time.Since(start) >= budget && len(plain) >= minRounds(traced) && (!traced || len(withTrace) > 0) {
			break
		}
	}

	res := &result{Correct: true}
	for _, rr := range append(append([]*roundResult(nil), plain...), withTrace...) {
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		if rr.gateErr != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s correctness gate: %v\n", sp.name, rr.gateErr)
		}
	}
	if traced {
		res.Metrics = layerMetrics(plain, withTrace, &samples)
		path := filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.json", sp.name, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := writeChromeTrace(path, firstSpans); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	} else {
		res.Metrics = endToEndMetrics(plain, res)
	}
	printMeta(sp, env, seed, traced, plain, withTrace)
	return res, nil
}

// minRounds is how many untraced rounds a run makes at least, whatever
// the time budget: enough for a median of set-up times.
func minRounds(traced bool) int {
	if traced {
		return 1
	}
	return 3
}

// printMeta prints the run's context as a JSON line ahead of the result.
func printMeta(sp *spec, env *env, seed int64, traced bool, plain, withTrace []*roundResult) {
	rounds := len(plain) + len(withTrace)
	meta := map[string]any{
		"workload":       sp.name,
		"seed":           seed,
		"trace":          traced,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"cpu_model":      cpuModel(),
		"store":          "memfd (anonymous tmpfs files)",
		"clients":        sp.clients,
		"rounds":         rounds,
		"warmup_tx":      sp.clients * sp.warmup,
		"window_tx":      sp.clients * sp.measured,
		"tx_total":       rounds * sp.clients * (sp.warmup + sp.measured),
		"fleet_probe":    env.probeOutcome,
		"probe_accounts": bankAccounts,
	}
	line, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Println(string(line))
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" when
// unavailable).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
