// Package fleet turns single provider engines into a sharded,
// replicated provider fleet: a consistent-hash router partitions
// accounts across N shards, each shard is one primary provider plus
// follower replicas fed by synchronous WAL-group shipping, and primary
// failure is survived by fencing the dead epoch and promoting the most
// caught-up follower through core.RestoreProvider.
//
// Every shard member is a Node, and the router's handle on a shard is
// a ShardHandle, which owns the one failover path. Members and handle
// reach each other through a Net: Wire when each member is its own OS
// process, LocalNet when all of them share one process.
//
// The replication unit is the committed WAL group — exactly the bytes
// the primary's group committer syncs (internal/core's journal groups
// over internal/store's CRC-framed records). The primary's commit hook
// ships every committed batch to all followers and waits for their
// acknowledgements before any response is released, so a client-visible
// answer always has at least two durable copies behind it (primary WAL
// + every follower WAL). A shipping failure kills the primary rather
// than letting it answer half-replicated: consistency is chosen over
// availability, and availability is restored by failover.
//
// Exactly-once across failover needs no extra machinery: the applied
// set in the ledger and the challenge table (pending challenges,
// CAPTCHAs included, and answered outcomes) both travel in the
// replicated groups, so a retransmission that
// straddles a failover lands on a promoted follower that either already
// has the answer (replayed from its cache) or never saw the unanswered
// attempt (the client's retry executes it exactly once).
package fleet

import "errors"

// Fleet errors.
var (
	// ErrNoFollower is returned by a failover when the shard has no
	// follower left to promote.
	ErrNoFollower = errors.New("fleet: no follower available for promotion")

	// ErrReplication wraps a replication shipping failure: a committed
	// batch could not be acknowledged by every follower, so the primary
	// is dead and the batch's requests were never answered.
	ErrReplication = errors.New("fleet: replication failed")

	// ErrStaleEpoch is returned by a follower refusing a replication
	// frame from a fenced (outranked) primary.
	ErrStaleEpoch = errors.New("fleet: stale epoch")

	// ErrOffsetGap is returned by a follower whose log would have a hole
	// if it applied the offered frame.
	ErrOffsetGap = errors.New("fleet: replication offset gap")

	// ErrPrimaryUnreachable marks a remote shard whose believed primary
	// cannot be reached over the wire — a failover trigger: the router
	// must probe the membership and promote (or re-resolve) rather than
	// keep dialing a dead process.
	ErrPrimaryUnreachable = errors.New("fleet: primary unreachable")

	// ErrCrossShard is returned by the router for a batch whose debit
	// accounts hash to different shards. Sharded mode requires a batch
	// to live on one shard — executing it on the first account's shard
	// would silently reject the other accounts, which don't exist there.
	ErrCrossShard = errors.New("fleet: batch spans multiple shards")
)
