#!/usr/bin/env bash
# Build the benchmark from the checkout it sits in and run it.
#
#   bash bench/run.sh                                  the whole suite
#   bash bench/run.sh -selfcheck                       the suite twice, compared
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                      one run (BENCHMARK.json's command)
#   bash bench/run.sh -update-golden                   re-pin bench/golden/
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go's build cache and temp files included) and under
# bench/out/ for suite results.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOWORK=off

go build -C "$bench_dir" -o "$build/inferabench" .
exec "$build/inferabench" -work "$build" -bench-dir "$bench_dir" "$@"
