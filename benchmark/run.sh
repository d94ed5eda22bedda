#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments, from the checkout root:
#
#   bash benchmark/run.sh --workload runtime-fine --seed 1 --seconds 35 --trace 0
#
# Everything the build and the runs write stays under .bench_build in the
# checkout: the Go build cache, the binary, run records and span files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" \
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/home/go" \
GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go -C benchmark build -o "$build/benchmark" . >&2
exec "$build/benchmark" "$@"
