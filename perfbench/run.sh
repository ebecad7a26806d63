#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload rr --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, the go tool's home and
# telemetry, the binary) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/perfbench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home" go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
