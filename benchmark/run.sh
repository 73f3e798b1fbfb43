#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it from the checkout's root. Everything the build writes — the
# binary and Go's build cache — stays under .bench_build/ in the
# checkout, so a run touches nothing outside it. In a directory that
# holds the benchmark but not the ncast module the build fails and this
# script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/ncast-benchmark" .)
cd "$root"
exec "$build/ncast-benchmark" "$@"
