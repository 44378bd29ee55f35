// Package check is the correctness oracle of the robustness
// experiments. It proves the paper's guarantee for one finished run —
// a transaction executes only after its confirmation, and exactly once
// — from two inputs alone: what the clients saw accepted, and the state
// each shard's surviving provider holds. Every experiment that audits
// exactly-once (F10 crashes, F13 failover, F14 socket chaos, F15
// process kills, F16 sessions) runs this one checker on its own inputs.
package check

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"unitp/internal/core"
)

// Rule names the invariant a violation breaks.
type Rule string

const (
	Lost           Rule = "lost"            // accepted, but executed on no shard
	Doubled        Rule = "doubled"         // executed more than once, fleet-wide
	Unsubmitted    Rule = "unsubmitted"     // executed, but never accepted
	AmountMismatch Rule = "amount mismatch" // executed with another amount than the accepted one

	// Unreconciled: a balance other than its opening balance plus the
	// net of the transfers its shard executed, or a transfer touching
	// an account the shard did not open with.
	Unreconciled Rule = "unreconciled balance"

	AuditChain Rule = "audit chain" // a shard's audit log does not verify
)

// Violation is one broken invariant.
type Violation struct {
	Rule   Rule
	Detail string
}

// Shard is one shard's input: its surviving provider and the ledger it
// opened with.
type Shard struct {
	// Provider is the shard's surviving provider: its primary, or one
	// restored from its data directory.
	Provider *core.Provider

	// Initial is the opening balance of every account the shard holds.
	Initial map[string]int64
}

// Report is the verdict on one run.
type Report struct {
	// Violations lists every broken invariant, ordered by rule and then
	// detail; empty when the run is correct.
	Violations []Violation

	// Vacuous lists, in declaration order, the rules the run gave
	// nothing to check, whose silence therefore proves nothing: lost
	// with no accepted transaction; doubled, unsubmitted and amount
	// mismatch with none executed; unreconciled balance with neither an
	// opening balance nor an executed transfer; audit chain when every
	// shard's replay covered no entry (an auto-accepted transfer writes
	// none).
	Vacuous []Rule

	// Audits holds each shard's audit replay report, in shard order:
	// nil for a shard whose replay failed.
	Audits []*core.AuditReport
}

// Err is nil for a correct run, and otherwise names every violation.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	lines := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		lines[i] = string(v.Rule) + ": " + v.Detail
	}
	return fmt.Errorf("check: %d violations: %s", len(r.Violations), strings.Join(lines, "; "))
}

func (r *Report) add(rule Rule, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{rule, fmt.Sprintf(format, args...)})
}

// auditEntries reads a provider's audit log. A provider never holds a
// broken chain, so the tests swap this to hand the checker one.
var auditEntries = func(p *core.Provider) []core.AuditEntry { return p.AuditLog().Entries() }

// Run checks a run: accepted maps each transaction ID a client saw
// accepted to its amount, and shards holds one entry per shard.
func Run(accepted map[string]int64, shards []Shard) *Report {
	rep := &Report{Audits: make([]*core.AuditReport, len(shards))}
	executed := map[string]int{}
	opened, audited := false, false
	for s, sh := range shards {
		opened = opened || len(sh.Initial) > 0
		net := map[string]int64{}
		for _, tx := range sh.Provider.Ledger().History() {
			executed[tx.ID]++
			if amount, ok := accepted[tx.ID]; !ok {
				rep.add(Unsubmitted, "shard %d executed %s", s, tx.ID)
			} else if tx.AmountCents != amount {
				rep.add(AmountMismatch, "shard %d executed %s for %d, accepted for %d", s, tx.ID, tx.AmountCents, amount)
			}
			for _, name := range []string{tx.From, tx.To} {
				if _, ok := sh.Initial[name]; !ok {
					rep.add(Unreconciled, "shard %d: %s touches %s, which it did not open with", s, tx.ID, name)
				}
			}
			net[tx.From] -= tx.AmountCents
			net[tx.To] += tx.AmountCents
		}
		for name, opening := range sh.Initial {
			if bal, err := sh.Provider.Ledger().Balance(name); err != nil || bal != opening+net[name] {
				rep.add(Unreconciled, "shard %d: %s holds %d (%v), want %d", s, name, bal, err, opening+net[name])
			}
		}
		var err error
		rep.Audits[s], err = core.ReplayAudit(auditEntries(sh.Provider), sh.Provider.Verifier())
		if err != nil {
			rep.add(AuditChain, "shard %d: %v", s, err)
		}
		audited = audited || err != nil || rep.Audits[s].Entries > 0
	}
	for id := range accepted {
		if executed[id] == 0 {
			rep.add(Lost, "%s", id)
		}
	}
	for id, n := range executed {
		if n > 1 {
			rep.add(Doubled, "%s executed %d times", id, n)
		}
	}
	slices.SortFunc(rep.Violations, func(a, b Violation) int {
		return cmp.Or(strings.Compare(string(a.Rule), string(b.Rule)), strings.Compare(a.Detail, b.Detail))
	})
	if len(accepted) == 0 {
		rep.Vacuous = append(rep.Vacuous, Lost)
	}
	if len(executed) == 0 {
		rep.Vacuous = append(rep.Vacuous, Doubled, Unsubmitted, AmountMismatch)
		if !opened {
			rep.Vacuous = append(rep.Vacuous, Unreconciled)
		}
	}
	if !audited {
		rep.Vacuous = append(rep.Vacuous, AuditChain)
	}
	return rep
}
