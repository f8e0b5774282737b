#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload pc-small-messages --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary, perfdb scratch stores, CPU profiles) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-path" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/go-tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -work-dir "$out" "$@"
