#!/usr/bin/env bash
# Builds the benchmark (package repro/bench of the root module) from this
# checkout and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload paper-matrix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, module cache, temporary files, its config) stays under
# the build directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$build/fgnvm-bench" ./bench
exec "$build/fgnvm-bench" "$@"
