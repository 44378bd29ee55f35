package core

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"unitp/internal/cryptoutil"
)

// account is one ledger row.
type account struct {
	name  string
	cents int64
}

// Ledger is the provider's account store. It exists so examples and
// experiments execute real transfers with real balance effects.
//
// Accounts live in one slice in name order, the order snapshots write
// them in, so a snapshot streams the balances in a single pass with no
// sort, copy or lookup. Lookups go through index, an open-addressing
// table of slice positions. The account set is fixed after set-up:
// a CreateAccount out of name order only marks the slice unsorted,
// and the next snapshot sorts it once and rebuilds the index.
type Ledger struct {
	mu       sync.Mutex
	accounts []account
	sorted   bool    // accounts is in strictly ascending name order
	index    []int32 // slot -> accounts position + 1; 0 is an empty slot
	seed     maphash.Seed
	history  []Transaction
	applied  map[string]bool // executed transaction IDs (idempotence)
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{sorted: true, seed: maphash.MakeSeed(), applied: make(map[string]bool)}
}

// find returns the position of name in accounts, or -1 and the empty
// index slot where name would go.
func (l *Ledger) find(name string) (pos, slot int) {
	if len(l.index) == 0 {
		return -1, -1
	}
	for slot = l.home(name); ; slot = l.next(slot) {
		p := l.index[slot]
		if p == 0 {
			return -1, slot
		}
		if l.accounts[p-1].name == name {
			return int(p - 1), slot
		}
	}
}

// home is name's first probe slot: its hash scaled onto the index,
// which need not be a power of two.
func (l *Ledger) home(name string) int {
	hi, _ := bits.Mul64(maphash.String(l.seed, name), uint64(len(l.index)))
	return int(hi)
}

// next is the slot probed after slot (linear probing).
func (l *Ledger) next(slot int) int {
	if slot++; slot == len(l.index) {
		return 0
	}
	return slot
}

// reindex rebuilds the index over accounts, half full. CreateAccount
// rebuilds it again past three quarters full, so it stays at most that
// full: a Go map beside the slice would cost several times its memory.
func (l *Ledger) reindex() {
	l.index = make([]int32, max(16, 2*len(l.accounts)))
	for pos := range l.accounts {
		slot := l.home(l.accounts[pos].name)
		for l.index[slot] != 0 {
			slot = l.next(slot)
		}
		l.index[slot] = int32(pos + 1)
	}
}

// sortLocked restores name order after out-of-order creates. The
// caller holds l.mu.
func (l *Ledger) sortLocked() {
	if l.sorted {
		return
	}
	slices.SortFunc(l.accounts, func(a, b account) int { return strings.Compare(a.name, b.name) })
	l.sorted = true
	l.reindex()
}

// CreateAccount opens an account with an initial balance.
func (l *Ledger) CreateAccount(name string, initialCents int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	pos, slot := l.find(name)
	if pos >= 0 {
		return fmt.Errorf("%w: %s", ErrAccountExists, name)
	}
	n := len(l.accounts)
	if n > 0 && name < l.accounts[n-1].name {
		l.sorted = false
	}
	// Grow by doubling: append's gentler growth of a multi-megabyte
	// slice costs noticeably more page faults during bulk set-up.
	if n == cap(l.accounts) {
		grown := make([]account, n, max(64, 2*n))
		copy(grown, l.accounts)
		l.accounts = grown
	}
	l.accounts = append(l.accounts, account{name: name, cents: initialCents})
	if 4*len(l.accounts) > 3*len(l.index) {
		l.reindex()
	} else {
		l.index[slot] = int32(n + 1)
	}
	return nil
}

// Balance returns an account's balance.
func (l *Ledger) Balance(name string) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	pos, _ := l.find(name)
	if pos < 0 {
		return 0, fmt.Errorf("%w: %s", ErrUnknownAccount, name)
	}
	return l.accounts[pos].cents, nil
}

// Apply executes a transfer atomically.
func (l *Ledger) Apply(tx *Transaction) error {
	if err := tx.Validate(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.applied[tx.ID] {
		return fmt.Errorf("%w: %s", ErrDuplicateTransaction, tx.ID)
	}
	from, _ := l.find(tx.From)
	if from < 0 {
		return fmt.Errorf("%w: %s", ErrUnknownAccount, tx.From)
	}
	to, _ := l.find(tx.To)
	if to < 0 {
		return fmt.Errorf("%w: %s", ErrUnknownAccount, tx.To)
	}
	if l.accounts[from].cents < tx.AmountCents {
		return fmt.Errorf("%w: %s", ErrInsufficientFunds, tx.From)
	}
	l.accounts[from].cents -= tx.AmountCents
	l.accounts[to].cents += tx.AmountCents
	l.history = append(l.history, *tx)
	l.applied[tx.ID] = true
	return nil
}

// putState appends the ledger's snapshot sections, balances in name
// order then the executed history, straight from the live state.
func (l *Ledger) putState(b *cryptoutil.Buffer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sortLocked()
	b.PutUint32(uint32(len(l.accounts)))
	for i := range l.accounts {
		b.PutString(l.accounts[i].name)
		b.PutUint64(uint64(l.accounts[i].cents))
	}
	b.PutUint32(uint32(len(l.history)))
	for i := range l.history {
		putTxField(b, &l.history[i])
	}
}

// restoreState replaces the ledger's contents (crash recovery).
// accounts must be in strictly ascending name order. The applied set
// is rebuilt from the history's transaction IDs.
func (l *Ledger) restoreState(accounts []account, history []Transaction) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.accounts = accounts
	l.sorted = true
	l.reindex()
	l.history = history
	l.applied = make(map[string]bool, len(history))
	for i := range history {
		l.applied[history[i].ID] = true
	}
}

// History returns a copy of the executed transactions.
func (l *Ledger) History() []Transaction {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Transaction, len(l.history))
	copy(out, l.history)
	return out
}
