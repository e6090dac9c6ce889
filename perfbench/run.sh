#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload dashboard --seed 1 --seconds 25 --trace 0
#
# Every argument passes through to the benchmark binary (see main.go). The
# binary and the Go build cache live under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) build="$CARGO_TARGET_DIR" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
