#!/usr/bin/env bash
# Builds cmd/trieserve and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash bench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache live under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout,
# and no process outlives the run.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# Telemetry off: otherwise the go command starts a detached upload
# process that outlives the benchmark.
echo off > "$build/config/go/telemetry/mode"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod GOTMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
cd "$root"
go build -o "$build/trieserve" ./cmd/trieserve
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" --server "$build/trieserve" "$@"
