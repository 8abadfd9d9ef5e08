#!/usr/bin/env bash
# Builds the benchmark and tricheckd from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
#
# Build products, the Go build and temporary directories and the run
# scratch files all stay under .bench_build in the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/tricheckd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a tricheck checkout (go.mod, cmd/tricheckd and perfbench/go.mod are required)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOTELEMETRY=off
go build -o "$out/bin/tricheckd" ./cmd/tricheckd
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -tricheckd "$out/bin/tricheckd" -workdir "$out" "$@"
