#!/usr/bin/env bash
# Builds the benchmark and gcaod from this checkout and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and trace files stay under
# .bench_build/perfbench in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/gcaod" gcao/cmd/gcaod) >&2
exec "$out/perfbench" -gcaod "$out/gcaod" "$@"
