package main

// snapshotCadence is tpserver's default -snapshot-every: a snapshot
// rotation every 64 group commits.
const snapshotCadence = 64

// specs are the benchmark's workloads. Counts are per client and fixed:
// every round of a workload does the same work.
var specs = map[string]*spec{
	// Every transaction confirmed by a fresh Ed25519 quote against an
	// in-memory provider: quote verification dominates.
	"quote-verify": {
		name: "quote-verify", clients: 2, warmup: 500, measured: 3000, block: 1,
		accounts: bankAccounts, maxCents: 100_000, confirms: true,
		build: func(e *env, tr *tracer) (system, error) {
			return buildProvider(e, tr, false, false, 0)
		},
	},
	// Attested sessions (one quote per 64 HMAC confirmations) on a
	// durable provider with no periodic snapshot: the state transition,
	// journaling and WAL group commit dominate.
	"session-wal": {
		name: "session-wal", clients: 2, warmup: 8 * sessionBudget, measured: 180 * sessionBudget,
		block: sessionBudget, accounts: bankAccounts, maxCents: 100_000, confirms: true,
		build: func(e *env, tr *tracer) (system, error) {
			return buildProvider(e, tr, true, true, 0)
		},
	},
	// session-wal with tpserver's snapshot cadence and one client, so
	// every round makes the same number of snapshot rotations: the
	// rotation of the 100k-account state dominates.
	"session-snapshot": {
		name: "session-snapshot", clients: 1, warmup: 2 * sessionBudget, measured: 16 * sessionBudget,
		block: sessionBudget, accounts: bankAccounts, maxCents: 100_000, confirms: true,
		build: func(e *env, tr *tracer) (system, error) {
			return buildProvider(e, tr, true, true, snapshotCadence)
		},
	},
	// Auto-accepted micropayments over the wire protocol to the
	// replicated two-shard fleet: wire, routing and WAL shipping
	// dominate. Its one client's transaction is a strictly sequential
	// chain (client, wire reader, worker, router, primary commit,
	// follower commit, wire writer), so a second P adds no parallel
	// work, only cross-thread wakeups; at GOMAXPROCS 2 those made the
	// workload's figures spread by 13-15% over five interleaved seeds,
	// against 6-12% at GOMAXPROCS 1.
	"micropay-fleet": {
		name: "micropay-fleet", clients: 1, procs: 1, warmup: 1000, measured: 30000, block: 1,
		accounts: fleetAccounts, maxCents: micropayThresholdCents,
		prepare: func(e *env) error { return e.warmFleetKeys() },
		build:   buildFleet,
	},
}
