package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"unitp/internal/core"
)

// bankAccounts is the single-provider bank: 100k accounts.
const bankAccounts = 100_000

// fleetAccounts is the micropay fleet's bank. NewFleet seeds every shard
// with the full set; a follower cannot bootstrap from a snapshot over
// 1 MiB (the replication frame carries it as one length-prefixed field),
// which the 100k bank exceeds — see probeFleetBootstrap.
const fleetAccounts = 20_000

// openingCents is every account's opening balance: far above what any
// sender can spend in a run, so no transfer is refused.
const openingCents = 1_000_000_000_000

// sessionBudget is the attested-session transaction budget (the
// provider default); session workloads change sender every budget.
const sessionBudget = 64

// accountNames returns the bank's account names, acct000000...
func accountNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("acct%06d", i)
	}
	return names
}

// txStream generates one client's transactions for one round from the
// seed: senders uniform over the bank (a new sender every `block`
// transactions — 1 for per-transaction confirmation, the session budget
// for session workloads), recipients uniform, amounts in [1, maxCents).
// Senders are not skewed: no source gives a skew for this traffic, and
// the skew moves the results (a Zipf exponent of 1.1 raised
// quote-verify's p90 latency by a tenth), so a guessed one would fix an
// unfounded level of contention into the baseline.
func txStream(seed int64, workload string, round, client, count, block int,
	names []string, maxCents int64) []core.Transaction {
	h := fnv.New64a()
	h.Write([]byte(workload))
	r := rand.New(rand.NewSource(seed ^ int64(h.Sum64()) ^ int64(round)<<20 ^ int64(client)<<40))
	txs := make([]core.Transaction, count)
	var from string
	for i := range txs {
		if i%block == 0 {
			from = names[r.Intn(len(names))]
		}
		to := names[r.Intn(len(names))]
		for to == from {
			to = names[r.Intn(len(names))]
		}
		txs[i] = core.Transaction{
			// Fixed-width fields keep every round's IDs, and so the
			// bytes each round journals and allocates, the same size.
			ID:          fmt.Sprintf("%s-r%04d-c%d-%07d", workload, round, client, i),
			From:        from,
			To:          to,
			AmountCents: 1 + r.Int63n(maxCents-1),
			Currency:    "EUR",
		}
	}
	return txs
}
