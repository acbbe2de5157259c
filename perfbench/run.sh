#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload synth-xftl --seed 1 --seconds 15 --trace 0
# Build outputs, the Go build cache, the go command's own config and
# telemetry files, and result files all stay under .bench_build/ in the
# current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out/results" "$@"
