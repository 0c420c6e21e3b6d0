#!/usr/bin/env bash
# Builds drmserver and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ledger --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/drmserver || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/drmserver and perfbench/)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/drmserver" ./cmd/drmserver >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -bin "$out/drmserver" -work "$out/runs" -trace-out "$out/traces" "$@"
