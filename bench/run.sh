#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (build cache and temp files too, so nothing is written outside
# the checkout) and runs it with the given arguments.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
