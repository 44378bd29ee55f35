#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload quote-verify --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build at
# the repository root: the Go build cache, the binary and the Chrome
# trace of a traced run. The stores' files are anonymous in-memory
# files (memfd) with no path.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off \
	GOPROXY=off GOTOOLCHAIN=local
(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
