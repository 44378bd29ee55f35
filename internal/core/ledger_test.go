package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// balancesOf returns a copy of every balance, keyed by account name.
func balancesOf(l *Ledger) map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int64, len(l.accounts))
	for _, a := range l.accounts {
		out[a.name] = a.cents
	}
	return out
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
	sorted := sort.SliceIsSorted(l.accounts, func(i, j int) bool { return l.accounts[i].name < l.accounts[j].name })
	count := len(l.accounts)
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
// duplicate ID, then unknown From, then unknown To, then funds.
func TestLedgerApplyErrorPrecedence(t *testing.T) {
	l := NewLedger()
	for _, name := range []string{"carol", "alice", "bob"} {
		if err := l.CreateAccount(name, 100); err != nil {
			t.Fatal(err)
		}
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
	} {
		err := l.Apply(c.tx)
		if !errors.Is(err, c.want) || err.Error() != fmt.Sprintf("%v: %s", c.want, c.name) {
			t.Fatalf("Apply(%s) = %v, want %v naming %s", c.tx.ID, err, c.want, c.name)
		}
	}
	// A failed Apply changes nothing.
	want := map[string]int64{"alice": 40, "bob": 160, "carol": 100}
	if got := balancesOf(l); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("balances = %v, want %v", got, want)
	}
	if h := l.History(); len(h) != 1 || h[0].ID != "t1" {
		t.Fatalf("history = %+v", h)
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
