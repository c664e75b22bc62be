#!/usr/bin/env bash
# Diagnostic, not a benchmark workload: runs the leafspine-256 model K times
# serially and K times on 2 threaded PDES shards (seed 1 every time) and
# prints how many runs' model-state digest differs from the first serial
# run's. Sharded execution is meant to be bit-identical to serial; a nonzero
# count is the race that keeps sharded runs out of the benchmark.
#
#   bench/perf/pdes_divergence.sh [K]    (default K = 8)
set -euo pipefail

k="${1:-8}"
here="$(cd "$(dirname "$0")" && pwd)"
build="$here/../../build-perf"
if [ ! -f "$build/Makefile" ] && [ ! -f "$build/build.ninja" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target mltcp_perf >&2

digest() {
  "$build/mltcp_perf" --workload=leafspine-256 --seed=1 --shards="$1" |
    grep -o '"digest":"[0-9a-f]*"' | cut -d'"' -f4
}

reference="$(digest 1)"
echo "serial reference $reference"
for shards in 1 2; do
  diverged=0
  for ((i = 0; i < k; i++)); do
    [ "$(digest "$shards")" = "$reference" ] || diverged=$((diverged + 1))
  done
  echo "shards=$shards diverged=$diverged/$k"
done
