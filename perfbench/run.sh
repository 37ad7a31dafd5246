#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload sweep-lossy --seed 1 --seconds 20 --trace 0
# Everything the build writes (Go build cache, binary, job scratch) goes
# under $CARGO_TARGET_DIR, .bench_build by default, inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/work"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" -work "$build/work" "$@"
