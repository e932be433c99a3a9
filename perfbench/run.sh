#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#   bash perfbench/run.sh --workload scan-cold --seed 1 --seconds 16 --trace 0
# Run it from the repository root. Every build and run artifact stays in
# .bench_build/ there (Go build cache included); no network is used.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
