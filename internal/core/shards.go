package core

import (
	"sync"
	"time"

	"unitp/internal/attest"
)

// Session-state sharding. The pending-challenge and answered-outcome
// maps are the provider's hottest mutable state: every challenge issue,
// every proof redemption, and every retransmitted proof touches them.
// Splitting them into lock-striped shards keyed by nonce means two
// sessions on different nonces never contend on the same lock, which is
// what lets the verify stage (preverify.go) peek at pending context and
// run its crypto concurrently across requests.
//
// Shard invariant: a nonce's pending entry and its answered entry live
// in the SAME shard (both are keyed by the nonce), so the consume-or-
// replay decision in takePending stays atomic under one stripe lock.

// numShards is the stripe count; a power of two so the shard index is a
// mask, not a mod.
const numShards = 16

// sessionShard is one stripe of the challenge/outcome state plus its GC
// bookkeeping. All fields are guarded by mu.
type sessionShard struct {
	mu       sync.Mutex
	pending  map[attest.Nonce]pendingChallenge
	answered map[attest.Nonce]answeredChallenge

	// sweptChallenges / sweptOutcomes count what expiry sweeps evicted
	// from this stripe (surfaced as ProviderStats.SweptByShard).
	sweptChallenges int
	sweptOutcomes   int
}

// shardIndex maps a nonce onto its stripe (FNV-1a over the nonce bytes).
func shardIndex(n attest.Nonce) int {
	h := uint32(2166136261)
	for _, b := range n {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h & (numShards - 1))
}

// shardFor returns the stripe owning a nonce.
func (p *Provider) shardFor(n attest.Nonce) *sessionShard {
	return &p.shards[shardIndex(n)]
}

// peekLive reports the pending challenge for a nonce exactly when the
// live (non-replay) proof path would consume it: present, of the right
// kind, and unexpired. The verify stage uses this to decide whether the
// expensive crypto can run ahead of the state transition. The check is
// re-made authoritatively by takePending; a stale answer here costs at
// most one wasted (or one deferred-to-inline) verification.
func (p *Provider) peekLive(nonce attest.Nonce, kind pendingKind) (pendingChallenge, bool) {
	sh := p.shardFor(nonce)
	sh.mu.Lock()
	pend, ok := sh.pending[nonce]
	sh.mu.Unlock()
	if !ok || pend.kind != kind {
		return pendingChallenge{}, false
	}
	if p.clock.Now().Sub(pend.issuedAt) > p.ttl {
		return pendingChallenge{}, false
	}
	return pend, true
}

// sweepShard expires one stripe's overdue challenges and cached
// outcomes, returning how many of each it evicted. Holding only this
// stripe's lock is what keeps sweeps amortized: a GC pass never stalls
// traffic on the other numShards-1 stripes.
func (p *Provider) sweepShard(sh *sessionShard, now time.Time) (expired, evicted int) {
	sh.mu.Lock()
	for nonce, pend := range sh.pending {
		if now.Sub(pend.issuedAt) > p.ttl {
			delete(sh.pending, nonce)
			expired++
		}
	}
	for nonce, ans := range sh.answered {
		if now.Sub(ans.at) > p.ttl {
			delete(sh.answered, nonce)
			evicted++
		}
	}
	sh.sweptChallenges += expired
	sh.sweptOutcomes += evicted
	sh.mu.Unlock()
	return expired, evicted
}
