#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes stays inside the checkout, under
# .bench_build/ (ignored by git): the build and module caches, the
# toolchain's scratch directory and its per-user files (telemetry
# counters, go/env), which follow XDG_CONFIG_HOME. Nothing is fetched.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/bench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
    echo "bench/run.sh: run from the root of a checkout of the repository (needs ./go.mod and ./bench/go.mod)" >&2
    exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"
