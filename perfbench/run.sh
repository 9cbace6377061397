#!/usr/bin/env bash
# Builds the benchmark from the source tree it runs in and runs it,
# passing every argument on (see main.go for the flags):
#
#   bash perfbench/run.sh --workload fig9 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the
# verdict stores and the span files all stay under .bench_build there.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --work "$build" "$@"
