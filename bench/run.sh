#!/usr/bin/env bash
# Builds the benchmark (bench/cmd/compbench) from this checkout and runs
# one workload. Run it from the repository root:
#
#   bash bench/run.sh --workload mp-closed --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the toolchain's temporary and
# config files all stay under .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd bench && go build -o "$out/compbench" ./cmd/compbench)
exec "$out/compbench" "$@"
