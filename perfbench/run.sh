#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload rank-grid --seed 1 --seconds 40 --trace 0
#
# The Go toolchain's cache, temporary files and configuration all live
# under the build directory ($CARGO_TARGET_DIR, default .bench_build),
# so building and running write nothing outside the checkout.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/go-tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/go-tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
