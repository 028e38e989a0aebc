#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout
# and runs it with the given arguments. Everything the build and the
# run write (Go's build cache included) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user's
# configuration directory: point that into the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
