#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; every argument is
# passed on (see doc.go). Run from the repository root:
#
#   bash livebench/run.sh --workload echo-sync --seed 1 --seconds 15 --trace 0
#
# The build cache, temporary files and the binary stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off
(cd "$root/livebench" && go build -o "$out/livebench" .)
exec "$out/livebench" "$@"
