#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload fa-ranks --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under the checkout:
# .bench_build (build cache and binary) and .bench_out (result files,
# spans, server data).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$root/.bench_out" "$@"
