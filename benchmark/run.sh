#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ and
# runs it. Everything go writes (build cache, binary) stays inside the
# checkout; nothing is downloaded (the module has no external deps).
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$build/ninf-benchmark" .)
cd "$root"
exec "$build/ninf-benchmark" "$@"
