#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload paper-coverage --seed 1 --seconds 15 --trace 0
#
# Every build product and cache stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/perfbench"
	GOTOOLCHAIN=local GOENV=off GOFLAGS= \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
