#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write stays under .bench_build/ and benchmark/out/ of the checkout this
# script lives in: the Go build cache, the linker's temporary files, the
# corpus the run generates and the trace it records.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/sxsi-benchmark" .)
exec "$build/sxsi-benchmark" -work "$build" -out "$here/out" "$@"
