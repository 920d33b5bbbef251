#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload put-mem --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, scratch
# data directories and trace files all stay under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), so nothing outside the
# checkout is written.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache
export GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$build" "$@"
