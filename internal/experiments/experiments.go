// Package experiments implements the evaluation harness: one runner per
// table and figure of the reconstructed evaluation (see DESIGN.md §4).
// cmd/tpbench is a thin CLI over this package; the tests here assert the
// *shape* results EXPERIMENTS.md records.
package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"unitp/internal/check"
	"unitp/internal/core"
	"unitp/internal/netsim"
	"unitp/internal/tpm"
	"unitp/internal/workload"
)

// Result is one experiment's rendered output.
type Result struct {
	// ID is the experiment identifier (t1, t2, t3, f1..f5).
	ID string

	// Title describes the experiment.
	Title string

	// Text is the rendered tables/series.
	Text string
}

// Runner executes one experiment.
type Runner struct {
	// ID is the experiment identifier.
	ID string

	// Title describes the experiment.
	Title string

	// Run executes it.
	Run func() (*Result, error)
}

// All returns every experiment in report order.
func All() []Runner {
	return []Runner{
		{ID: "t1", Title: "Table T1: TPM command microbenchmarks by vendor", Run: RunT1},
		{ID: "t2", Title: "Table T2: trusted-path session breakdown by vendor", Run: RunT2},
		{ID: "t3", Title: "Table T3: end-to-end confirmation latency (vendor × mode)", Run: RunT3},
		{ID: "f1", Title: "Figure F1: session time vs PAL (SLB) size", Run: RunF1},
		{ID: "f2", Title: "Figure F2: provider verification throughput vs parallelism", Run: RunF2},
		{ID: "f3", Title: "Figure F3: security evaluation (attack × protections)", Run: RunF3},
		{ID: "f4", Title: "Figure F4: CAPTCHA vs trusted-path human verification", Run: RunF4},
		{ID: "f5", Title: "Figure F5: sealed-state session chaining and freshness ablation", Run: RunF5},
		{ID: "f6", Title: "Figure F6: batch confirmation amortization", Run: RunF6},
		{ID: "f7", Title: "Figure F7: population-scale fraud vs infection rate", Run: RunF7},
		{ID: "f8", Title: "Figure F8: human-factors boundary (carelessness sweep)", Run: RunF8},
		{ID: "f9", Title: "Figure F9: chaos sweep (fault injection, retry, degradation)", Run: RunF9},
		{ID: "f10", Title: "Figure F10: crash sweep (crash rate × crash point × snapshot interval)", Run: RunF10},
		{ID: "f11", Title: "Figure F11: observability overhead and chaos attribution", Run: RunF11},
		{ID: "f12", Title: "Figure F12: request pipeline vs one request at a time (group commit)", Run: RunF12},
		{ID: "f13", Title: "Figure F13: provider fleet — kill-a-shard chaos and shard scaling", Run: RunF13},
		{ID: "f14", Title: "Figure F14: hardened TCP transport — socket chaos, overload shedding, netsim vs TCP", Run: RunF14},
		{ID: "f15", Title: "Figure F15: distributed fleet — multi-process kill matrix over real TCP", Run: RunF15},
		{ID: "f16", Title: "Figure F16: confirmation throughput by crypto profile × re-quote interval", Run: RunF16},
	}
}

// Lookup finds a runner by ID.
func Lookup(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// instantUser arms a deployment with a zero-think-time approver, so
// measured times isolate the machine (human time is reported
// separately).
func instantUser(d *workload.Deployment, tx *core.Transaction) *workload.User {
	u := workload.DefaultUser(d.Rng.Fork("instant-user"))
	u.Reaction = 0
	u.ReactionJitter = 0
	u.ReadTime = 0
	if tx != nil {
		u.Intend(tx)
	}
	u.AttachTo(d.Machine)
	return u
}

// seedFor derives stable per-experiment seeds.
func seedFor(id string, k int) uint64 {
	var h uint64 = 14695981039346656037
	for _, b := range []byte(id) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h + uint64(k)
}

// millis renders a duration in milliseconds for table cells.
func millis(d time.Duration) string {
	return fmt.Sprintf("%7.1f", float64(d.Microseconds())/1000)
}

// sortedOpNames renders op stats deterministically.
func sortedOpNames(stats map[tpm.Op]tpm.OpStat) []tpm.Op {
	ops := make([]tpm.Op, 0, len(stats))
	for op := range stats {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	return ops
}

// joinSections renders multiple blocks with blank-line separation.
func joinSections(sections ...string) string {
	return strings.Join(sections, "\n")
}

// linkForExperiments is the default network path of the latency
// experiments.
func linkForExperiments() netsim.Link { return netsim.LinkBroadband() }

// checkCell renders a check's violation count for a results table,
// naming the audit-chain rule when it had no entry to check (an
// auto-accepted transfer writes none), so a clean zero does not read as
// a verified chain.
func checkCell(rep *check.Report) string {
	if slices.Contains(rep.Vacuous, check.AuditChain) {
		return fmt.Sprintf("%d (audit chain vacuous)", len(rep.Violations))
	}
	return fmt.Sprintf("%d", len(rep.Violations))
}

// submitted decodes the transactions in a drain's SubmitTx frames, ID
// to amount: what a drain that saw every frame accepted has accepted.
func submitted(frames [][][]byte) map[string]int64 {
	out := map[string]int64{}
	for _, wf := range frames {
		for _, frame := range wf {
			if msg, _ := core.DecodeMessage(frame); msg != nil {
				tx := msg.(*core.SubmitTx).Tx
				out[tx.ID] = tx.AmountCents
			}
		}
	}
	return out
}
