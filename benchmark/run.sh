#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout (build cache and binary under .bench_build/, so
# nothing is written outside it) and runs it with the given arguments.
# For interactive use `go run ./benchmark` does the same with the user's
# own build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/pjoin-benchmark" ./benchmark
exec "$out/pjoin-benchmark" "$@"
