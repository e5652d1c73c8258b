#!/usr/bin/env bash
# Builds perfbench from source and runs it; every argument passes through.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload engine-detailed --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the result documents all stay under
# .bench_build/ in the current directory.
set -euo pipefail
build="$(pwd)/.bench_build/perfbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# Stamping the commit into the result documents needs a readable git
# checkout; elsewhere the build goes without it.
(cd perfbench && { go build -o "$build/perfbench" . 2>/dev/null ||
	go build -buildvcs=false -o "$build/perfbench" .; }) >&2
exec "$build/perfbench" "$@"
