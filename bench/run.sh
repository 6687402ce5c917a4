#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command). Run from the
# repository root: builds the harness with a build cache kept inside
# bench/out, then hands every argument to it.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/bench/out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
mkdir -p bench/out/bin
go build -C bench -o out/bin/bench .
exec bench/out/bin/bench "$@"
