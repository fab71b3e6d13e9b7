#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# This is the command BENCHMARK.json names; run it from the repository
# root. Everything the build writes stays inside the checkout: the binary
# and Go's build cache go to .bench_build/ (both are in .gitignore).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
# bench/ is a module of its own (it needs no change to the repository's
# go.mod); its go.mod points at the parent directory for the code under
# test, so the build fails, as it should, where that code is missing.
(cd "$here" && go build -o "$build/vwbench" .)
exec "$build/vwbench" "$@"
