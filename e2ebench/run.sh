#!/usr/bin/env bash
# Builds and runs the end-to-end delivery benchmark. Run it from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload hot_fanout --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and temporary files live under
# .bench_build in the current directory, so nothing is written outside it.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off
(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
