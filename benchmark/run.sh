#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark (and with it the product
# packages it imports) from source, then run it with the caller's
# arguments. Every build output, Go's caches included, stays under
# .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/cashmere-benchmark" .) >&2
exec "$build/cashmere-benchmark" "$@"
