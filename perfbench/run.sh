#!/usr/bin/env bash
# Builds the benchmark from the source checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
#
# Run from the checkout root. Everything the build writes (Go build cache,
# module cache, binary) stays under $CARGO_TARGET_DIR, or .bench_build
# when that is unset, so nothing outside the checkout is touched. Build
# output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
