#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the runner from source and
# runs it with the arguments it was given, keeping everything the build and
# the run write (Go build cache, binary, data dirs, traces) under
# .bench_build/ in the current directory, which must be the repository
# root. `go run ./benchmark` does the same with the user's own Go cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -buildvcs=false -o "$build/osbench" ./benchmark
exec "$build/osbench" "$@"
