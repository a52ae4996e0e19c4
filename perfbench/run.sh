#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sweep-live --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the Go toolchain and the
# benchmark write stays under the build directory ($CARGO_TARGET_DIR when
# set, else .bench_build), so the run touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f perfbench/go.mod || ! -f go.mod ]]; then
	echo "perfbench: run from the repository root (perfbench/go.mod and go.mod must exist)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build = /* ]] || build=$root/$build
mkdir -p "$build/go/tmp" "$build/go/config" "$build/work"

export GOCACHE=$build/go/cache GOPATH=$build/go/path GOTMPDIR=$build/go/tmp
export XDG_CONFIG_HOME=$build/go/config GOTOOLCHAIN=local GOPROXY=off
export TMPDIR=$build/work

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -work "$build/work" "$@"
