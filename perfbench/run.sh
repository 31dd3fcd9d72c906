#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload week-inproc --seed 1 --seconds 20 --trace 0
#
# The benchmark is a Go module of its own (perfbench/go.mod) that
# imports the repository through a replace directive, so it builds
# only inside a full checkout. Every build artifact, cache and scratch
# file stays under .bench_build/ in the working directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
