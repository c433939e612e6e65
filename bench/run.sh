#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload table1 --seed 0 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# every temporary file (the generated BLIF corpora, the service's spool)
# stay under .bench_build/ in the current directory, so a run writes
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME holds the go command's settings and telemetry files.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
