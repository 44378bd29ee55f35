GO ?= go

.PHONY: all vet build test race check bench bench-crypto bench-smoke chaos-smoke results clean

all: check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# test runs the suite in a shuffled order: pooled simulation keys come
# from one cycling cursor, so a test that leans on the tests before it
# fails here. A failure prints its -test.shuffle seed; rerun with
# `go test -shuffle=<seed> ./<pkg>` to reproduce it.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# check is the full gate: vet, build, tests (shuffled) with and without
# the race detector, plus one pass of every benchmark (bench-smoke) so
# the measurement code stays honest.
check: vet build test race bench-smoke

bench:
	$(GO) test -bench=. -benchmem .

# bench-crypto compares the provider-side cost of one confirmed
# transaction under each crypto profile (RSA, Ed25519) against the
# attested-session HMAC fast path, then runs the F16 scheme ×
# re-quote-interval sweep itself (CI-sized: 400 confirms per cell, a few
# seconds of wall time) so the speedup and crossover verdicts are
# checked, not just the micro-numbers behind them.
bench-crypto:
	$(GO) test -bench='BenchmarkConfirm(RSA|Ed25519|SessionHMAC)$$' -benchmem -run xxx .
	$(GO) run ./cmd/tpbench -exp f16

# bench-smoke runs every benchmark exactly once — not for numbers, but
# to keep the benchmark code (including the parallel pipeline drains,
# which exercise real on-disk group commits) compiling and passing.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

# chaos-smoke is the truncated chaos gate: F10b's heaviest crash-storm
# cell (crash rate 0.05, a snapshot rotation after every commit), the
# F13 kill-a-shard sweep (every kill-phase cell plus a primary killed
# under concurrent load), the F14 TCP chaos matrix (resets, corruption,
# truncation, partition, slowloris, and overload shedding over real
# sockets), and the F15 multi-process cell (router + one shard primary
# + follower as real child processes, one SIGKILL failover mid-drain,
# exactly-once audited from the survivors' data directories), failing
# on any lost or doubled transaction, broken audit chain, or unexpected
# failover count. Every cell is audited by internal/check, whose tests
# run first: a checker that stops catching its seeded faults fails the
# gate too.
chaos-smoke:
	$(GO) test ./internal/check -count=1 -v
	$(GO) test ./internal/experiments -run 'TestF10StormCellCompletes|TestF13ChaosSmoke|TestF13MatrixCells|TestF13KillUnderLoadExactlyOnce|TestF14ChaosSmoke|TestF14ChaosCellsExactlyOnce|TestF15ProcSmoke' -count=1 -v

# results regenerates every table/figure into results/.
results:
	$(GO) run ./cmd/tpbench -save results

clean:
	$(GO) clean ./...
