#!/usr/bin/env bash
# Builds the pipeline benchmark from the surrounding checkout and runs it.
# Usage: bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the checkout root. Build products, the Go build cache and the
# benchmark's scratch files all stay under .bench_build in that root.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOENV=off
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" -workdir "$out" "$@"
