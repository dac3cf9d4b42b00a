#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout; everything the build writes stays under .bench_build there.
#
#   bash perfbench/run.sh --workload grid-phase2 --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh spread run1.out run2.out ...
#   bash perfbench/run.sh calibrate 30
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The go command keeps telemetry counters under the user config
# directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$build/config"
# The benchmark needs nothing beyond the standard library and this
# repository: never switch toolchains or fetch modules.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
