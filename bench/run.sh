#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload all -seed 1 -out result.json
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the binary, Go's build cache and temporary
# files, and the harness's scratch space.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go -C bench build -buildvcs=false -o "$out/csbench" .
exec "$out/csbench" "$@"
