#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root, e.g.
#
#   bash perfbench/run.sh --workload hc16k-pcf --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
