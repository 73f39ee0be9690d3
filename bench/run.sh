#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache, binary and
# Go's own directories all stay inside the checkout) and runs it with the given
# arguments, from the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/casper-bench" .
exec "$build/casper-bench" "$@"
