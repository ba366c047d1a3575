#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload analyze --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
PERFBENCH_COMMIT=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT
exec "$out/perfbench" "$@"
