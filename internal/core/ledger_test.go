package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// balancesOf returns a copy of every balance, keyed by account name.
func balancesOf(l *Ledger) map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int64, l.count)
	for _, name := range arenaNames(l) {
		at, _ := l.find(name)
		out[name] = l.cents(at)
	}
	return out
}

// arenaNames returns the account names in arena order. The caller
// holds l.mu.
func arenaNames(l *Ledger) []string {
	var names []string
	for off := 0; off < len(l.balances); {
		name, cents := l.account(off)
		names = append(names, string(name))
		off = cents + 8
	}
	return names
}

// TestLedgerRandomOrderAccounts creates 20k accounts in random order
// and checks lookups and duplicate detection before and after the lazy
// sort a snapshot performs, and that the sort leaves name order.
func TestLedgerRandomOrderAccounts(t *testing.T) {
	const n = 20_000
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("acct-%06d", i)
	}
	rng := rand.New(rand.NewSource(17))
	rng.Shuffle(n, func(i, j int) { names[i], names[j] = names[j], names[i] })

	l := NewLedger()
	for i, name := range names {
		if err := l.CreateAccount(name, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string) {
		t.Helper()
		for i, name := range names {
			if bal, err := l.Balance(name); err != nil || bal != int64(i) {
				t.Fatalf("%s: Balance(%s) = %d, %v; want %d", stage, name, bal, err, i)
			}
			if i%97 == 0 {
				if err := l.CreateAccount(name, 1); !errors.Is(err, ErrAccountExists) {
					t.Fatalf("%s: duplicate CreateAccount(%s) = %v, want ErrAccountExists", stage, name, err)
				}
			}
		}
		if _, err := l.Balance("acct-missing"); !errors.Is(err, ErrUnknownAccount) {
			t.Fatalf("%s: Balance of a missing account = %v", stage, err)
		}
	}
	check("unsorted")
	if l.sorted {
		t.Fatal("ledger claims name order after out-of-order creates")
	}

	l.mu.Lock()
	l.sortLocked()
	order := arenaNames(l)
	sorted := sort.StringsAreSorted(order) && len(order) == l.count
	count := len(order)
	l.mu.Unlock()
	if !sorted || count != n {
		t.Fatalf("after sort: %d accounts, name-ordered %v", count, sorted)
	}
	check("sorted")

	// Creates after the sort keep working, in and out of order.
	if err := l.CreateAccount("zz-last", 5); err != nil || !l.sorted {
		t.Fatalf("in-order create: %v, sorted %v", err, l.sorted)
	}
	if err := l.CreateAccount("aa-first", 6); err != nil || l.sorted {
		t.Fatalf("out-of-order create: %v, sorted %v", err, l.sorted)
	}
	check("after late creates")
	for name, want := range map[string]int64{"zz-last": 5, "aa-first": 6} {
		if bal, err := l.Balance(name); err != nil || bal != want {
			t.Fatalf("Balance(%s) = %d, %v", name, bal, err)
		}
	}
}

// TestLedgerApplyErrorPrecedence pins the order Apply checks in:
// duplicate ID, then unknown From, then unknown To, then funds, then
// the recipient's balance overflowing.
func TestLedgerApplyErrorPrecedence(t *testing.T) {
	l := NewLedger()
	for _, name := range []string{"carol", "alice", "bob"} {
		if err := l.CreateAccount(name, 100); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CreateAccount("rich", math.MaxInt64-10); err != nil {
		t.Fatal(err)
	}
	tx := func(id, from, to string, cents int64) *Transaction {
		return &Transaction{ID: id, From: from, To: to, AmountCents: cents, Currency: "EUR"}
	}
	if err := l.Apply(tx("t1", "alice", "bob", 60)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tx   *Transaction
		want error
		name string // the account the error must name, if any
	}{
		// t1 already executed: duplicate wins over every other fault.
		{tx("t1", "nobody", "nobody-else", 1_000), ErrDuplicateTransaction, "t1"},
		{tx("t2", "nobody", "nobody-else", 1_000), ErrUnknownAccount, "nobody"},
		{tx("t3", "alice", "nobody-else", 1_000), ErrUnknownAccount, "nobody-else"},
		{tx("t4", "alice", "bob", 41), ErrInsufficientFunds, "alice"},
		// Short of funds and overflowing the recipient: funds win.
		{tx("t5", "alice", "rich", 41), ErrInsufficientFunds, "alice"},
		{tx("t6", "alice", "rich", 11), ErrBalanceOverflow, "rich"},
	} {
		err := l.Apply(c.tx)
		if !errors.Is(err, c.want) || err.Error() != fmt.Sprintf("%v: %s", c.want, c.name) {
			t.Fatalf("Apply(%s) = %v, want %v naming %s", c.tx.ID, err, c.want, c.name)
		}
	}
	// A failed Apply changes nothing.
	want := map[string]int64{"alice": 40, "bob": 160, "carol": 100, "rich": math.MaxInt64 - 10}
	if got := balancesOf(l); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("balances = %v, want %v", got, want)
	}
	if h := l.History(); len(h) != 1 || h[0].ID != "t1" {
		t.Fatalf("history = %+v", h)
	}
	// A credit up to the largest balance is still accepted.
	if err := l.Apply(tx("t6", "alice", "rich", 10)); err != nil {
		t.Fatal(err)
	}
	if bal, _ := l.Balance("rich"); bal != math.MaxInt64 {
		t.Fatalf("rich = %d, want MaxInt64", bal)
	}
}

// TestLedgerMatchesModel drives a ledger with random CreateAccount
// calls (in and out of name order, duplicates included), Apply calls
// down every error path, and Balance calls, checking each result
// against a map oracle, and round-trips the owning provider through a
// snapshot payload every few hundred operations.
func TestLedgerMatchesModel(t *testing.T) {
	// Names of several lengths, many sharing their first 16 bytes (the
	// sort's key), one a prefix of another, one holding a zero byte.
	var names []string
	for i := 0; i < 60; i++ {
		names = append(names, fmt.Sprintf("acct%03d", i), fmt.Sprintf("shared-prefix-16%03d", i))
	}
	names = append(names, "a", "a\x00", "ab", "", "zz")
	rng := rand.New(rand.NewSource(23))
	pick := func() string { return names[rng.Intn(len(names))] }
	openings := []int64{0, 1, 500, 1_000_000, math.MaxInt64 - 100, math.MaxInt64}

	p := NewProvider(ProviderConfig{Name: "model"})
	model := map[string]int64{}
	applied := map[string]bool{}
	var ids []string
	outcomes := map[error]int{} // Apply results by expected error
	for op := 1; op <= 4_000; op++ {
		l := p.Ledger()
		switch k := rng.Intn(10); {
		case k < 3:
			name, cents := pick(), openings[rng.Intn(len(openings))]
			err := l.CreateAccount(name, cents)
			if _, dup := model[name]; dup {
				if !errors.Is(err, ErrAccountExists) {
					t.Fatalf("op %d: duplicate CreateAccount(%q) = %v", op, name, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("op %d: CreateAccount(%q) = %v", op, name, err)
			}
			model[name] = cents
		case k < 8:
			id := fmt.Sprintf("tx-%d", op)
			if len(ids) > 0 && rng.Intn(8) == 0 {
				id = ids[rng.Intn(len(ids))]
			}
			tx := &Transaction{ID: id, From: pick(), To: pick(), AmountCents: rng.Int63n(2_000_000) - 1_000, Currency: "EUR"}
			if rng.Intn(4) == 0 {
				tx.AmountCents = math.MaxInt64 - rng.Int63n(200)
			}
			err := l.Apply(tx)
			from, fromOK := model[tx.From]
			to, toOK := model[tx.To]
			var want error
			switch {
			case tx.Validate() != nil:
				want = ErrInvalidTransaction
			case applied[tx.ID]:
				want = ErrDuplicateTransaction
			case !fromOK, !toOK:
				want = ErrUnknownAccount
			case from < tx.AmountCents:
				want = ErrInsufficientFunds
			case to > math.MaxInt64-tx.AmountCents:
				want = ErrBalanceOverflow
			}
			outcomes[want]++
			if want == nil {
				if err != nil {
					t.Fatalf("op %d: Apply(%+v) = %v", op, tx, err)
				}
				model[tx.From] -= tx.AmountCents
				model[tx.To] += tx.AmountCents
				applied[tx.ID] = true
				ids = append(ids, tx.ID)
			} else if !errors.Is(err, want) {
				t.Fatalf("op %d: Apply(%+v) = %v, want %v", op, tx, err, want)
			}
		default:
			name := pick()
			bal, err := l.Balance(name)
			want, ok := model[name]
			if ok && (err != nil || bal != want) || !ok && !errors.Is(err, ErrUnknownAccount) {
				t.Fatalf("op %d: Balance(%q) = %d, %v; model %d, %v", op, name, bal, err, want, ok)
			}
		}
		if op%300 == 0 {
			q := NewProvider(ProviderConfig{Name: fmt.Sprintf("model-%d", op)})
			if err := q.loadState(p.encodeState()); err != nil {
				t.Fatalf("op %d: restore: %v", op, err)
			}
			p = q
		}
		if op%300 == 0 || op == 4_000 {
			if got := balancesOf(p.Ledger()); fmt.Sprint(got) != fmt.Sprint(model) {
				t.Fatalf("op %d: balances = %v, model %v", op, got, model)
			}
			if h := p.Ledger().History(); len(h) != len(ids) {
				t.Fatalf("op %d: %d transactions in history, model %d", op, len(h), len(ids))
			}
		}
	}
	for _, want := range []error{nil, ErrInvalidTransaction, ErrDuplicateTransaction, ErrUnknownAccount, ErrInsufficientFunds, ErrBalanceOverflow} {
		if outcomes[want] == 0 {
			t.Errorf("no Apply expected to end in %v; outcomes %v", want, outcomes)
		}
	}
}

// TestLedgerBalanceAfterRestore checks a provider restored from a
// snapshot answers Balance and Apply from the restored index, and still
// refuses a duplicate account and a replayed transaction.
func TestLedgerBalanceAfterRestore(t *testing.T) {
	src := NewProvider(ProviderConfig{Name: "src"})
	for i, name := range []string{"m", "c", "x", "a", "q"} {
		if err := src.Ledger().CreateAccount(name, int64(1_000*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Ledger().Apply(&Transaction{ID: "r1", From: "x", To: "a", AmountCents: 500, Currency: "EUR"}); err != nil {
		t.Fatal(err)
	}

	dst := NewProvider(ProviderConfig{Name: "dst"})
	if err := dst.loadState(src.encodeState()); err != nil {
		t.Fatal(err)
	}
	l := dst.Ledger()
	for name, want := range map[string]int64{"a": 4_500, "c": 2_000, "m": 1_000, "q": 5_000, "x": 2_500} {
		if bal, err := l.Balance(name); err != nil || bal != want {
			t.Fatalf("restored Balance(%s) = %d, %v; want %d", name, bal, err, want)
		}
	}
	if _, err := l.Balance("b"); !errors.Is(err, ErrUnknownAccount) {
		t.Fatalf("restored Balance of a missing account = %v", err)
	}
	if err := l.CreateAccount("q", 1); !errors.Is(err, ErrAccountExists) {
		t.Fatalf("restored duplicate CreateAccount = %v", err)
	}
	if err := l.Apply(&Transaction{ID: "r1", From: "x", To: "a", AmountCents: 500, Currency: "EUR"}); !errors.Is(err, ErrDuplicateTransaction) {
		t.Fatalf("restored replay of r1 = %v", err)
	}
	if err := l.Apply(&Transaction{ID: "r2", From: "q", To: "c", AmountCents: 5_000, Currency: "EUR"}); err != nil {
		t.Fatal(err)
	}
	if bal, _ := l.Balance("c"); bal != 7_000 {
		t.Fatalf("c after restored apply = %d", bal)
	}
}
