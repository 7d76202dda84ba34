#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload hot_read --seed 1 --seconds 24 --trace 0
# The binary, the Go build cache and every other file the toolchain or
# the run writes stay under .bench_build/, inside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
