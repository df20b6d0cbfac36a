#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh -workload NAME -seed N -seconds S -trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the Go build cache, the binary, the stores
# spilled during set-up (removed at exit) and the run records in
# .bench_build/out/.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS=-mod=mod GOPROXY=off
(cd "$src" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
