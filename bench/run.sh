#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root.
# The build cache, the build's temporary files and the binary all stay in
# bench/out/.build/ (ignored, and skipped by ./... patterns), so the run
# touches nothing outside the checkout. In a directory without the
# repository's go.mod the build fails and the script exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/bench/out/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/wfbench" ./bench
exec "$build/wfbench" "$@"
