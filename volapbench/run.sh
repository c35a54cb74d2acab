#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the root of a checkout:
#
#   bash volapbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOMODCACHE="$out/gomodcache"
go -C volapbench build -o "$out/volapbench" .
exec "$out/volapbench" "$@"
