#!/bin/bash
# Builds the benchmark from source and runs it, passing every argument
# on. Run from the repository root (BENCHMARK.json's "command" does):
#
#   bash benchmark/run.sh --workload lr-bsp-wide --seed 1 --seconds 20 --trace 0
#
# Everything the toolchain writes stays under .bench_build in the
# current directory: build cache, module cache, config and the binary.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOENV=off
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config
export GOTOOLCHAIN=local GOPROXY=off GONOSUMDB='*' GOTELEMETRY=off
(cd "$root/benchmark" && go build -buildvcs=false -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
