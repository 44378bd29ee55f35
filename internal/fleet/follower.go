package fleet

import (
	"errors"
	"fmt"
	"sync"

	"unitp/internal/core"
	"unitp/internal/store"
)

// Follower is a cold replica of one shard: it persists the primary's
// committed WAL groups into its own store, tracking the stream offset
// it has applied, but runs no provider until promoted. Keeping the
// replica cold makes the steady state cheap (an append and a sync per
// shipped batch, no double execution of every request) and concentrates
// all replay in one place — promotion, which rebuilds a provider from
// the follower's segment through the same core.RestoreProvider path
// crash recovery uses, audit-chain verification included.
type Follower struct {
	mu      sync.Mutex
	shard   int
	index   int
	backend store.Backend
	st      *store.Store
	epoch   uint64
	applied uint64 // stream offset: committed groups applied so far
	retired bool   // promoted away or dropped; refuses all frames
}

// NewFollower builds an empty follower over its own backend. It holds
// no usable state until the primary bootstraps it.
func NewFollower(shard, index int, backend store.Backend) *Follower {
	return &Follower{shard: shard, index: index, backend: backend}
}

// Applied returns the replication stream offset the follower has
// durably applied — the promotion fitness: the most caught-up follower
// is the one with the highest Applied.
func (f *Follower) Applied() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// Epoch returns the newest epoch the follower has accepted frames from.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// raiseEpoch lifts the follower's fence floor: frames from epochs below
// it are refused. Used when a node restarts from (or learns) a durable
// epoch before any frame arrives; never lowers the floor.
func (f *Follower) raiseEpoch(epoch uint64) {
	f.mu.Lock()
	if epoch > f.epoch {
		f.epoch = epoch
	}
	f.mu.Unlock()
}

// Close releases the follower's store on graceful shutdown. The
// follower keeps refusing frames afterwards (its store is gone), which
// is indistinguishable from fencing to the primary — correct, since a
// closed follower must not ack durability it can no longer provide.
func (f *Follower) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.st != nil {
		err := f.st.Close()
		f.st = nil
		return err
	}
	return nil
}

// Handle is the follower's replication wire endpoint (netsim.Handler).
// Every frame is answered with an ack; fencing and gap refusals are
// acks too, so the primary always learns the follower's position.
func (f *Follower) Handle(req []byte) ([]byte, error) {
	boot, app, _, err := decodeRepFrame(req)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.retired {
		return encodeAck(ackFrame{Epoch: f.epoch, Applied: f.applied, Status: ackFenced}), nil
	}
	switch {
	case boot != nil:
		return f.applyBootstrap(boot)
	case app != nil:
		return f.applyAppend(app)
	default:
		return nil, fmt.Errorf("fleet: follower received an ack frame")
	}
}

// applyBootstrap (re)seeds the follower's store from a full segment.
// Called with f.mu held.
func (f *Follower) applyBootstrap(boot *bootstrapFrame) ([]byte, error) {
	if boot.Epoch < f.epoch {
		return encodeAck(ackFrame{Epoch: f.epoch, Applied: f.applied, Status: ackFenced}), nil
	}
	if f.st != nil {
		f.st.Close()
		f.st = nil
	}
	st, err := store.Open(f.backend)
	if errors.Is(err, store.ErrNoFallback) {
		// Nothing on disk is worth recovering: the bootstrap replaces
		// it whole. Only a restore must refuse a damaged store.
		if err = store.Discard(f.backend); err == nil {
			st, err = store.Open(f.backend)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: follower bootstrap: %w", err)
	}
	if err := st.WriteSnapshot(boot.State); err != nil {
		return nil, fmt.Errorf("fleet: follower bootstrap: %w", err)
	}
	if len(boot.Records) > 0 {
		if err := st.AppendAll(boot.Records); err != nil {
			return nil, fmt.Errorf("fleet: follower bootstrap: %w", err)
		}
		if err := st.Sync(); err != nil {
			return nil, fmt.Errorf("fleet: follower bootstrap: %w", err)
		}
	}
	f.st = st
	f.epoch = boot.Epoch
	f.applied = boot.UpTo
	return encodeAck(ackFrame{Epoch: f.epoch, Applied: f.applied, Status: ackOK}), nil
}

// applyAppend extends the follower's log, deduplicating overlap by
// stream offset. Called with f.mu held.
func (f *Follower) applyAppend(app *appendFrame) ([]byte, error) {
	if app.Epoch < f.epoch || f.st == nil {
		return encodeAck(ackFrame{Epoch: f.epoch, Applied: f.applied, Status: ackFenced}), nil
	}
	if app.From > f.applied {
		// A hole: the primary believes we have groups we never saw.
		return encodeAck(ackFrame{Epoch: f.epoch, Applied: f.applied, Status: ackGap}), nil
	}
	f.epoch = app.Epoch
	skip := f.applied - app.From
	if skip >= uint64(len(app.Groups)) {
		// Pure duplicate (a re-shipped batch whose ack was lost).
		return encodeAck(ackFrame{Epoch: f.epoch, Applied: f.applied, Status: ackOK}), nil
	}
	fresh := app.Groups[skip:]
	if err := f.st.AppendAll(fresh); err != nil {
		return nil, fmt.Errorf("fleet: follower append: %w", err)
	}
	if err := f.st.Sync(); err != nil {
		return nil, fmt.Errorf("fleet: follower append: %w", err)
	}
	f.applied += uint64(len(fresh))
	return encodeAck(ackFrame{Epoch: f.epoch, Applied: f.applied, Status: ackOK}), nil
}

// Promote rebuilds a live provider from the follower's durable segment
// and retires the follower. restore is the caller's factory closing
// over configuration that is not state (keys, PAL approvals) — it runs
// core.RestoreProvider under the hood, so the audit chain is re-verified
// and the store rotates into a fresh generation before the provider
// answers anything.
func (f *Follower) Promote(restore func(st *store.Store) (*core.Provider, error)) (*core.Provider, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.retired {
		return nil, fmt.Errorf("fleet: follower %d already retired", f.index)
	}
	if f.st == nil {
		return nil, fmt.Errorf("fleet: follower %d was never bootstrapped", f.index)
	}
	// Reopen the backend: the live store handle has already consumed its
	// recovered state, and RestoreProvider needs the snapshot + WAL tail
	// fresh from disk — the same path a crashed primary's restart takes.
	f.st.Close()
	f.st = nil
	st, err := store.Open(f.backend)
	if err != nil {
		return nil, fmt.Errorf("fleet: promote follower %d: %w", f.index, err)
	}
	p, err := restore(st)
	if err != nil {
		return nil, fmt.Errorf("fleet: promote follower %d: %w", f.index, err)
	}
	f.retired = true
	return p, nil
}
