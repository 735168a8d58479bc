#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload deque-ends --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (compiler cache, binary) stays under the
# build directory inside the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$(dirname "$0")" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
