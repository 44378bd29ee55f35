package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sync"

	"unitp/internal/cryptoutil"
)

// Ledger is the provider's account store. It exists so examples and
// experiments execute real transfers with real balance effects.
//
// The balances live in one byte arena laid out exactly as the
// snapshot's balances section: per account, a big-endian u32 name
// length, the name, and the balance as a big-endian u64, in name order.
// A snapshot writes the arena itself, with no encoding or copy, and a
// restore takes the section back as one copy. The arena holds no
// pointers, so the garbage collector never scans the names. Lookups go
// through index, an open-addressing table of arena offsets. The account
// set is fixed after set-up: a CreateAccount out of name order only
// marks the arena unsorted, and the next snapshot sorts it once and
// rebuilds the index.
//
// The executed history is held the same way, as the snapshot's history
// section: Apply encodes each transaction once, and that encoding is
// what the snapshot writes and the WAL journal copies.
type Ledger struct {
	mu       sync.Mutex
	balances []byte  // the balances section body, laid out as above
	count    int     // accounts in balances
	last     int     // offset of the arena's last account
	sorted   bool    // balances is in strictly ascending name order
	index    []int32 // slot -> balances offset + 1; 0 is an empty slot
	seed     maphash.Seed
	history  section         // executed transactions: the snapshot's history section
	applied  map[string]bool // executed transaction IDs (idempotence)
}

// accountOverhead is an account's size in the arena beyond its name:
// the u32 name length and the u64 balance.
const accountOverhead = 4 + 8

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{sorted: true, seed: maphash.MakeSeed(), applied: make(map[string]bool)}
}

// account splits the account at arena offset off into its name, a view
// into the arena, and the offset of its balance.
func (l *Ledger) account(off int) (name []byte, cents int) {
	n := int(binary.BigEndian.Uint32(l.balances[off:]))
	return l.balances[off+4 : off+4+n], off + 4 + n
}

// cents reads the balance stored at arena offset at.
func (l *Ledger) cents(at int) int64 {
	return int64(binary.BigEndian.Uint64(l.balances[at:]))
}

// setCents overwrites the balance stored at arena offset at.
func (l *Ledger) setCents(at int, v int64) {
	binary.BigEndian.PutUint64(l.balances[at:], uint64(v))
}

// find returns the offset of name's balance in the arena, or -1 and the
// empty index slot where name would go.
func (l *Ledger) find(name string) (cents, slot int) {
	if len(l.index) == 0 {
		return -1, -1
	}
	for slot = l.home(maphash.String(l.seed, name)); ; slot = l.next(slot) {
		p := l.index[slot]
		if p == 0 {
			return -1, slot
		}
		if got, at := l.account(int(p - 1)); string(got) == name {
			return at, slot
		}
	}
}

// home is the first probe slot of a name hashing to h: the hash scaled
// onto the index, which need not be a power of two.
func (l *Ledger) home(h uint64) int {
	hi, _ := bits.Mul64(h, uint64(len(l.index)))
	return int(hi)
}

// next is the slot probed after slot (linear probing).
func (l *Ledger) next(slot int) int {
	if slot++; slot == len(l.index) {
		return 0
	}
	return slot
}

// reindex rebuilds the index over the arena, half full. CreateAccount
// rebuilds it again past three quarters full, so it stays at most that
// full: a Go map beside the arena would cost several times its memory.
func (l *Ledger) reindex() {
	l.index = make([]int32, max(16, 2*l.count))
	for off := 0; off < len(l.balances); {
		name, cents := l.account(off)
		slot := l.home(maphash.Bytes(l.seed, name))
		for l.index[slot] != 0 {
			slot = l.next(slot)
		}
		l.index[slot] = int32(off + 1)
		l.last = off
		off = cents + 8
	}
}

// sortLocked restores name order after out-of-order creates. It sorts
// keys holding each name's first 16 bytes, so only names sharing those
// are compared in the arena, then rebuilds the arena in key order. The
// caller holds l.mu.
func (l *Ledger) sortLocked() {
	if l.sorted {
		return
	}
	type key struct {
		hi, lo uint64 // the name's first 16 bytes, zero-padded
		off    int32
	}
	keys := make([]key, 0, l.count)
	for off := 0; off < len(l.balances); {
		name, cents := l.account(off)
		var prefix [16]byte
		copy(prefix[:], name)
		keys = append(keys, key{binary.BigEndian.Uint64(prefix[:8]), binary.BigEndian.Uint64(prefix[8:]), int32(off)})
		off = cents + 8
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.hi, b.hi); c != 0 {
			return c
		}
		if c := cmp.Compare(a.lo, b.lo); c != 0 {
			return c
		}
		an, _ := l.account(int(a.off))
		bn, _ := l.account(int(b.off))
		return bytes.Compare(an, bn)
	})
	sorted := make([]byte, 0, cap(l.balances))
	for _, k := range keys {
		_, cents := l.account(int(k.off))
		sorted = append(sorted, l.balances[k.off:cents+8]...)
	}
	l.balances = sorted
	l.sorted = true
	l.reindex()
}

// CreateAccount opens an account with an initial balance. A name
// longer than a length-prefixed field may hold is refused: a snapshot
// holding it could not be restored.
func (l *Ledger) CreateAccount(name string, initialCents int64) error {
	if len(name) > cryptoutil.MaxFieldLen {
		return fmt.Errorf("core: account name of %d bytes exceeds the %d-byte field bound", len(name), cryptoutil.MaxFieldLen)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	at, slot := l.find(name)
	if at >= 0 {
		return fmt.Errorf("%w: %s", ErrAccountExists, name)
	}
	off, end := len(l.balances), len(l.balances)+accountOverhead+len(name)
	if end > math.MaxInt32 {
		return fmt.Errorf("core: ledger full at %d accounts", l.count)
	}
	if l.count > 0 {
		if last, _ := l.account(l.last); name < string(last) {
			l.sorted = false
		}
	}
	// Grow by half. Doubling held up to twice the arena's size live for
	// good; append's growth of a multi-megabyte slice (about 1.25x)
	// copies some five times the arena's final size while a bank is
	// loaded, which cost 100k accounts an extra GC cycle and a quarter
	// more set-up time.
	if end > cap(l.balances) {
		grown := make([]byte, off, max(end, 4096, cap(l.balances)+cap(l.balances)/2))
		copy(grown, l.balances)
		l.balances = grown
	}
	l.balances = binary.BigEndian.AppendUint32(l.balances, uint32(len(name)))
	l.balances = append(l.balances, name...)
	l.balances = binary.BigEndian.AppendUint64(l.balances, uint64(initialCents))
	l.count++
	l.last = off
	if 4*l.count > 3*len(l.index) {
		l.reindex()
	} else {
		l.index[slot] = int32(off + 1)
	}
	return nil
}

// Balance returns an account's balance.
func (l *Ledger) Balance(name string) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	at, _ := l.find(name)
	if at < 0 {
		return 0, fmt.Errorf("%w: %s", ErrUnknownAccount, name)
	}
	return l.cents(at), nil
}

// Apply executes a transfer atomically. It checks, in order: a
// duplicate transaction ID, an unknown sender, an unknown recipient,
// the sender's funds, and the recipient's balance overflowing; a
// refused transfer changes nothing.
func (l *Ledger) Apply(tx *Transaction) error {
	return l.apply(tx, nil)
}

// apply is Apply, handing an executed transaction's history field
// (length prefix included, a view into the history) to emit, when not
// nil, before it returns.
func (l *Ledger) apply(tx *Transaction, emit func(field []byte)) error {
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
	fromCents, toCents := l.cents(from), l.cents(to)
	if fromCents < tx.AmountCents {
		return fmt.Errorf("%w: %s", ErrInsufficientFunds, tx.From)
	}
	// Validate refuses a non-positive amount, so only a credit can
	// overflow.
	if toCents > math.MaxInt64-tx.AmountCents {
		return fmt.Errorf("%w: %s", ErrBalanceOverflow, tx.To)
	}
	l.setCents(from, fromCents-tx.AmountCents)
	l.setCents(to, toCents+tx.AmountCents)
	field := l.history.add(tx.size(), tx.put)
	l.applied[tx.ID] = true
	if emit != nil {
		emit(field)
	}
	return nil
}

// restoreState replaces the ledger's contents (crash recovery). The
// ledger takes ownership of balances, a balances section body holding
// count accounts in strictly ascending name order, and copies history,
// n encoded history fields the caller has checked. The applied set is
// rebuilt from the history's transaction IDs.
func (l *Ledger) restoreState(count int, balances []byte, history []byte, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.balances = balances
	l.count = count
	l.sorted = true
	l.reindex()
	l.history = section{}
	l.history.extend(history, n)
	l.applied = make(map[string]bool, n)
	l.history.each(func(body []byte) {
		l.applied[string(cryptoutil.NewReader(body).Field())] = true
	})
}

// History decodes the executed transactions, in execution order.
func (l *Ledger) History() []Transaction {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Transaction, 0, l.history.n)
	l.history.each(func(body []byte) {
		tx, err := UnmarshalTransaction(body)
		if err != nil {
			panic(fmt.Sprintf("core: ledger history holds an undecodable transaction: %v", err))
		}
		out = append(out, *tx)
	})
	return out
}
