#!/usr/bin/env bash
# End-to-end benchmark runner (see README.md in this directory).
#
# Reader mode, every workload, one process each:
#   bench/e2e/run.sh [--seed N] [--trace DIR] [--repeat K] [--quick]
#     --trace DIR  also run each workload traced: per-layer metrics, spans and
#                  per-plan replay tables land in DIR, and the tracing overhead
#                  (traced minus untraced end-to-end metrics) is printed
#     --repeat K   K runs per workload on seeds N..N+K-1; prints each metric's
#                  median, quartiles and spread next to its BENCHMARK.json bound
#     --quick      short phases: checks the plumbing, numbers are meaningless
#
# Single-workload mode, one run, result JSON on the last stdout line:
#   bench/e2e/run.sh --workload W --seed N [--seconds T] [--trace 0|1] [--quick]
#     --trace 1 reports the per-layer metrics; its trace files go to
#     build/bench-e2e/trace
#
# Both modes first build the library and bswp_bench in Release into
# build/bench-e2e (build output goes to stderr).
set -euo pipefail

cd "$(dirname "$0")/../.."
BUILD=build/bench-e2e

usage() { echo "run.sh: $1" >&2; exit 2; }

workload="" seed=1 seconds="" trace="" repeat=1 quick=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --quick) quick=1; shift ;;
    *) usage "unknown argument $1" ;;
  esac
done

args=()
[ "$quick" = 1 ] && args+=(--quick)
if [ -n "$workload" ]; then
  [ "$repeat" = 1 ] || usage "--repeat is for reader mode, not --workload"
  [ -n "$seconds" ] && args+=(--seconds "$seconds")
  case "$trace" in
    "" | 0) ;;
    1) args+=(--trace-dir "$BUILD/trace") ;;
    *) usage "--trace takes 0 or 1 with --workload" ;;
  esac
else
  [ -z "$seconds" ] || usage "--seconds needs --workload"
  [ -n "$trace" ] && args+=(--trace "$trace")
fi

mkdir -p "$BUILD/tmp"
export TMPDIR="$PWD/$BUILD/tmp"  # compiler temporaries stay inside the tree
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -S bench/e2e -B "$BUILD" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$BUILD" --target bswp_bench -j "$(nproc)" >&2

if [ -n "$workload" ]; then
  [ "$trace" = 1 ] && mkdir -p "$BUILD/trace"
  exec "$BUILD/bswp_bench" --workload "$workload" --seed "$seed" "${args[@]}"
fi
exec python3 bench/e2e/report.py --bin "$BUILD/bswp_bench" --seed "$seed" --repeat "$repeat" \
  --out "$BUILD/results.json" "${args[@]}"
