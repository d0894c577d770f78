#!/usr/bin/env bash
# Builds the benchmark and the gdpd daemon from this checkout's sources,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and daemon cache directories all stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/gdpd" mcpart/cmd/gdpd) >&2
exec "$out/perfbench" --gdpd "$out/gdpd" --workdir "$out/run" "$@"
