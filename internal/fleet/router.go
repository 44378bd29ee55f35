package fleet

import (
	"fmt"
	"sync"

	"unitp/internal/attest"
	"unitp/internal/core"
	"unitp/internal/obs"
)

// Router is the fleet's client-facing front end: a netsim.Handler that
// partitions the account space across shards by consistent hashing and
// drives failover when a shard's primary dies under it.
//
// Session-opening messages (submissions, CAPTCHA fallbacks, logins,
// provisioning) route by their natural key — the debited account, the
// username, the platform — so one user's state lives on exactly one
// shard. Batches must debit
// accounts that all live on one shard; a batch straddling shards is
// refused with ErrCrossShard rather than silently executed where half
// its accounts don't exist. Mid-session messages (confirmations,
// proofs, CAPTCHA answers) carry no account; the router remembers which
// shard issued each challenge nonce and routes the answer back to it.
// The sticky entry is dropped once the answer is delivered, and the pin
// table is bounded (abandoned challenges age out deterministically); an
// answer for a nonce the router has never
// seen (or has forgotten) falls back to hashing the nonce itself,
// landing on a deterministic shard whose replay/staleness machinery
// gives the client a well-formed retryable rejection.
type Router struct {
	ring    *Ring
	shards  []*ShardHandle
	metrics *obs.Registry
	routed  []string // per-shard routed-counter names

	mu         sync.Mutex
	nonceRoute *pinTable[attest.Nonce]
}

// maxRoutePins bounds the pin table to 2×maxRoutePins entries — far
// above any realistic concurrent-session count, small enough that a
// router abandoned challenges leak into stays bounded for good.
const maxRoutePins = 1 << 14

// NewRouter fronts shard handles — in-process or over the wire — with a
// consistent-hash ring of DefaultVirtualNodes points per shard; metrics
// may be nil.
func NewRouter(shards []*ShardHandle, metrics *obs.Registry) *Router {
	routed := make([]string, len(shards))
	for i := range routed {
		routed[i] = fmt.Sprintf("fleet.shard%d.routed", i)
	}
	return &Router{
		ring:       NewRing(len(shards), DefaultVirtualNodes),
		shards:     shards,
		metrics:    metrics,
		routed:     routed,
		nonceRoute: newPinTable[attest.Nonce](maxRoutePins),
	}
}

// Shards returns the router's shard handles in index order.
func (r *Router) Shards() []*ShardHandle { return r.shards }

// ShardFor returns the shard index owning a routing key — exposed so
// experiments can place accounts on chosen shards.
func (r *Router) ShardFor(key string) int { return r.ring.Shard(key) }

// Handle implements netsim.Handler: route, dispatch, and on a dead or
// fenced primary fail over and retry once. The retry is safe by the
// protocol's own idempotency: a request the dead primary never answered
// either replays from the promoted follower's caches or executes fresh,
// exactly once either way.
func (r *Router) Handle(req []byte) ([]byte, error) {
	idx, err := r.route(req)
	if err != nil {
		r.metrics.Counter("fleet.rejected_cross_shard").Inc()
		return nil, err
	}
	shard := r.shards[idx]
	r.metrics.Counter(r.routed[idx]).Inc()

	epoch := shard.Epoch()
	resp, err := shard.Handle(req)
	if err != nil && FailoverTrigger(err) {
		r.metrics.Counter("fleet.failovers_triggered").Inc()
		if foErr := shard.Failover(epoch); foErr != nil {
			return nil, fmt.Errorf("fleet: shard %d unavailable: %w (failover: %v)", idx, err, foErr)
		}
		r.metrics.Counter("fleet.failover_retries").Inc()
		resp, err = shard.Handle(req)
	}
	if err == nil {
		r.observe(idx, req, resp)
	}
	return resp, err
}

// route picks the shard for one request frame. The only refusal is a
// batch whose accounts straddle shards — everything else routes
// somewhere deterministic.
func (r *Router) route(req []byte) (int, error) {
	_, inner, _ := obs.UnwrapFrame(req)
	msg, err := core.DecodeMessage(inner)
	if err != nil {
		// Undecodable frames go to shard 0, whose provider counts the
		// corruption and reports the decode error to the transport.
		return 0, nil
	}
	switch m := msg.(type) {
	case *core.SubmitTx:
		if m.Tx != nil {
			return r.ring.Shard(m.Tx.From), nil
		}
	case *core.FallbackRequest:
		if m.Tx != nil {
			return r.ring.Shard(m.Tx.From), nil
		}
	case *core.SubmitBatch:
		if len(m.Txs) > 0 {
			idx := r.ring.Shard(m.Txs[0].From)
			for _, tx := range m.Txs[1:] {
				if other := r.ring.Shard(tx.From); other != idx {
					return 0, fmt.Errorf("%w: account %q is on shard %d, %q is on shard %d",
						ErrCrossShard, m.Txs[0].From, idx, tx.From, other)
				}
			}
			return idx, nil
		}
	case *core.LoginRequest:
		return r.ring.Shard(m.Username), nil
	case *core.SessionOpen:
		// Sessions bind to the account whose transactions they will
		// confirm, so they live where that account's ledger lives.
		return r.ring.Shard(m.Account), nil
	case *core.ProvisionRequest:
		return r.ring.Shard(m.PlatformID), nil
	case *core.ConfirmTx:
		return r.nonceShard(m.Nonce), nil
	case *core.ConfirmBatch:
		return r.nonceShard(m.Nonce), nil
	case *core.PresenceProof:
		return r.nonceShard(m.Nonce), nil
	case *core.ProvisionComplete:
		return r.nonceShard(m.Nonce), nil
	case *core.LoginProof:
		return r.nonceShard(m.Nonce), nil
	case *core.SessionProve:
		return r.nonceShard(m.Nonce), nil
	case *core.ConfirmTxSession:
		return r.nonceShard(m.Nonce), nil
	case *core.FallbackAnswer:
		return r.nonceShard(m.Nonce), nil
	}
	// Keyless requests (presence) hash their empty key: any shard can
	// serve them, this one deterministically does.
	return r.ring.Shard(""), nil
}

// nonceShard looks up the shard that issued a challenge nonce, falling
// back to hashing the nonce for unknown (forgotten or fabricated) ones.
func (r *Router) nonceShard(n attest.Nonce) int {
	r.mu.Lock()
	idx, ok := r.nonceRoute.get(n)
	r.mu.Unlock()
	if ok {
		return idx
	}
	return r.ring.Shard(string(n[:]))
}

// observe learns routing state from a delivered exchange: challenges
// pin their nonce to the issuing shard, and delivered answers release
// the pin.
func (r *Router) observe(idx int, req, resp []byte) {
	_, inner, _ := obs.UnwrapFrame(resp)
	if msg, err := core.DecodeMessage(inner); err == nil {
		switch m := msg.(type) {
		case *core.Challenge:
			r.pinNonce(m.Nonce, idx)
			return
		case *core.BatchChallenge:
			r.pinNonce(m.Nonce, idx)
			return
		case *core.PresenceChallenge:
			r.pinNonce(m.Nonce, idx)
			return
		case *core.ProvisionChallenge:
			r.pinNonce(m.Nonce, idx)
			return
		case *core.LoginChallenge:
			r.pinNonce(m.Nonce, idx)
			return
		case *core.SessionChallenge:
			r.pinNonce(m.Nonce, idx)
			return
		case *core.FallbackChallenge:
			r.pinNonce(m.Nonce, idx)
			return
		}
	}

	// Not a challenge: if the request was a session answer, its pin has
	// served its purpose.
	_, innerReq, _ := obs.UnwrapFrame(req)
	if msg, err := core.DecodeMessage(innerReq); err == nil {
		switch m := msg.(type) {
		case *core.ConfirmTx:
			r.unpinNonce(m.Nonce)
		case *core.ConfirmBatch:
			r.unpinNonce(m.Nonce)
		case *core.PresenceProof:
			r.unpinNonce(m.Nonce)
		case *core.ProvisionComplete:
			r.unpinNonce(m.Nonce)
		case *core.LoginProof:
			r.unpinNonce(m.Nonce)
		case *core.SessionProve:
			r.unpinNonce(m.Nonce)
		case *core.ConfirmTxSession:
			r.unpinNonce(m.Nonce)
		case *core.FallbackAnswer:
			r.unpinNonce(m.Nonce)
		}
	}
}

// pinNonce records which shard issued a challenge nonce.
func (r *Router) pinNonce(n attest.Nonce, idx int) {
	r.mu.Lock()
	r.nonceRoute.put(n, idx)
	r.mu.Unlock()
}

// unpinNonce forgets a delivered challenge nonce.
func (r *Router) unpinNonce(n attest.Nonce) {
	r.mu.Lock()
	r.nonceRoute.del(n)
	r.mu.Unlock()
}
