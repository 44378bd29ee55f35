package check

import (
	"slices"
	"testing"

	"unitp/internal/core"
	"unitp/internal/sim"
)

// opening is every test shard's opening balances.
var opening = map[string]int64{"alice": 1000, "bob": 0}

// tx is a transfer from alice to bob.
func tx(id string, cents int64) *core.Transaction {
	return &core.Transaction{ID: id, From: "alice", To: "bob", AmountCents: cents, Currency: "EUR"}
}

// shardRunning returns a shard whose auto-accepting provider opened with
// opening and then executed txs through its request path. An
// auto-accepted transfer writes no audit entry, so each is also
// recorded as an HMAC-mode confirmation would be, to give the chain
// links to check.
func shardRunning(t *testing.T, txs ...*core.Transaction) Shard {
	t.Helper()
	sh := shardAutoAccepting(t, txs...)
	for _, tx := range txs {
		sh.Provider.AuditLog().Append(core.AuditEntry{Kind: core.AuditConfirm, TxID: tx.ID, TxDigest: tx.Digest(), Confirmed: true})
	}
	return sh
}

// shardAutoAccepting is shardRunning without the audit entries: its
// log stays empty, as an auto-accepting deployment's does.
func shardAutoAccepting(t *testing.T, txs ...*core.Transaction) Shard {
	t.Helper()
	p := core.NewProvider(core.ProviderConfig{
		Name:                  "check-test",
		Clock:                 sim.NewVirtualClock(),
		Random:                sim.NewRand(1),
		ConfirmThresholdCents: 1 << 20,
	})
	for name, cents := range opening {
		if err := p.Ledger().CreateAccount(name, cents); err != nil {
			t.Fatal(err)
		}
	}
	for _, tx := range txs {
		req, err := core.EncodeMessage(&core.SubmitTx{Tx: tx})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := p.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := core.DecodeMessage(resp)
		if err != nil {
			t.Fatal(err)
		}
		if out, ok := msg.(*core.Outcome); !ok || !out.Accepted {
			t.Fatalf("%s not executed: %#v", tx.ID, msg)
		}
	}
	return Shard{Provider: p, Initial: opening}
}

// TestRunCatchesEachFault seeds one fault per rule and requires the
// checker to report exactly that rule: removing a rule's check makes
// its case fail, and no rule fires on another rule's fault. Each case
// also names the rules its run gave nothing to check.
func TestRunCatchesEachFault(t *testing.T) {
	for _, c := range []struct {
		name     string
		accepted map[string]int64
		shards   func(t *testing.T) []Shard
		tamper   func(entries []core.AuditEntry)
		want     []Rule
		vacuous  []Rule
	}{
		{
			name:     "clean run",
			accepted: map[string]int64{"t1": 5, "t2": 7},
			shards:   func(t *testing.T) []Shard { return []Shard{shardRunning(t, tx("t1", 5), tx("t2", 7))} },
		},
		{
			name:     "duplicated apply",
			accepted: map[string]int64{"t1": 5},
			shards: func(t *testing.T) []Shard {
				return []Shard{shardRunning(t, tx("t1", 5)), shardRunning(t, tx("t1", 5))}
			},
			want: []Rule{Doubled},
		},
		{
			name:     "dropped accepted ID",
			accepted: map[string]int64{"t1": 5, "t2": 7},
			shards:   func(t *testing.T) []Shard { return []Shard{shardRunning(t, tx("t1", 5))} },
			want:     []Rule{Lost},
		},
		{
			name:     "extra executed ID",
			accepted: map[string]int64{"t1": 5},
			shards:   func(t *testing.T) []Shard { return []Shard{shardRunning(t, tx("t1", 5), tx("t2", 7))} },
			want:     []Rule{Unsubmitted},
		},
		{
			name:     "wrong amount",
			accepted: map[string]int64{"t1": 6},
			shards:   func(t *testing.T) []Shard { return []Shard{shardRunning(t, tx("t1", 5))} },
			want:     []Rule{AmountMismatch},
		},
		{
			name:     "tampered balance",
			accepted: map[string]int64{"t1": 5},
			shards: func(t *testing.T) []Shard {
				sh := shardRunning(t, tx("t1", 5))
				sh.Initial = map[string]int64{"alice": 1001, "bob": 0}
				return []Shard{sh}
			},
			want: []Rule{Unreconciled},
		},
		{
			name:     "account outside the opening balances",
			accepted: map[string]int64{"t1": 5},
			shards: func(t *testing.T) []Shard {
				sh := shardRunning(t, tx("t1", 5))
				sh.Initial = map[string]int64{"alice": 1000}
				return []Shard{sh}
			},
			want: []Rule{Unreconciled},
		},
		{
			name:     "broken chain link",
			accepted: map[string]int64{"t1": 5, "t2": 7},
			shards:   func(t *testing.T) []Shard { return []Shard{shardRunning(t, tx("t1", 5), tx("t2", 7))} },
			tamper:   func(entries []core.AuditEntry) { entries[len(entries)-1].PrevChain[0] ^= 1 },
			want:     []Rule{AuditChain},
		},
		{
			name:     "auto-accept only",
			accepted: map[string]int64{"t1": 5, "t2": 7},
			shards:   func(t *testing.T) []Shard { return []Shard{shardAutoAccepting(t, tx("t1", 5), tx("t2", 7))} },
			vacuous:  []Rule{AuditChain},
		},
		{
			name:     "nothing accepted or executed",
			accepted: map[string]int64{},
			shards:   func(t *testing.T) []Shard { return []Shard{shardAutoAccepting(t)} },
			vacuous:  []Rule{Lost, Doubled, Unsubmitted, AmountMismatch, AuditChain},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.tamper != nil {
				read := auditEntries
				t.Cleanup(func() { auditEntries = read })
				auditEntries = func(p *core.Provider) []core.AuditEntry {
					entries := read(p)
					c.tamper(entries)
					return entries
				}
			}
			rep := Run(c.accepted, c.shards(t))
			var got []Rule
			for _, v := range rep.Violations {
				if !slices.Contains(got, v.Rule) {
					got = append(got, v.Rule)
				}
			}
			if !slices.Equal(got, c.want) {
				t.Fatalf("rules broken = %v, want %v (%v)", got, c.want, rep.Err())
			}
			if (rep.Err() == nil) != (len(c.want) == 0) {
				t.Fatalf("Err() = %v with %d violations", rep.Err(), len(rep.Violations))
			}
			if !slices.Equal(rep.Vacuous, c.vacuous) {
				t.Fatalf("vacuous rules = %v, want %v", rep.Vacuous, c.vacuous)
			}
		})
	}
}
