#!/usr/bin/env bash
# Builds the ledger from source and runs it. Everything the build writes
# stays inside the checkout, under .bench_build/. Arguments are passed on:
#   bash bench/run.sh --workload frame-head --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
