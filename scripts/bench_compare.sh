#!/usr/bin/env bash
# Compare two bench JSON artifacts (bench::JsonWriter output) and flag
# regressions.
#
#   usage: scripts/bench_compare.sh OLD.json NEW.json [THRESHOLD_PCT]
#          scripts/bench_compare.sh --strict OLD.json NEW.json [THRESHOLD_PCT]
#
# The JSON is the flat one-"key": value-per-line shape bench::JsonWriter
# emits, so awk is enough — no JSON parser needed. Regression direction is
# inferred from the key name the same way the stats structs name units:
# keys containing `_us`, `latency`, `p50`, `p95`, `p99`, `seconds`, `allocs`
# or `_over_best` are lower-is-better (latencies / allocation counts / time
# over the fastest alternative); everything
# else (throughput, hit rates, speedups) is higher-is-better. `tokens_per_s`
# keys are always higher-is-better, overriding any latency-ish substring. Non-numeric
# values (strings, booleans) and keys present in only one file are reported
# but never flagged.
#
# Exit status: 0 always, unless --strict is given, in which case any flagged
# regression exits 1 (CI runs this non-blocking, without --strict — smoke-
# mode numbers are meaningless and real numbers are host-dependent; the diff
# is advisory context for the reviewer, not a gate).
set -euo pipefail

strict=0
if [ "${1:-}" = "--strict" ]; then
  strict=1
  shift
fi

if [ $# -lt 2 ]; then
  echo "usage: $0 [--strict] OLD.json NEW.json [THRESHOLD_PCT]" >&2
  exit 2
fi

old_file=$1
new_file=$2
threshold=${3:-10}

for f in "$old_file" "$new_file"; do
  if [ ! -f "$f" ]; then
    echo "bench_compare: no such file: $f" >&2
    exit 2
  fi
done

awk -v threshold="$threshold" -v strict="$strict" \
    -v old_name="$old_file" -v new_name="$new_file" '
function lower_is_better(key) {
  # Throughputs stay higher-is-better even when the key also carries a
  # latency-ish substring (e.g. a per-percentile tokens_per_s breakdown).
  if (key ~ /tokens_per_s/) return 0
  return key ~ /_us/ || key ~ /latency/ || key ~ /p50/ || key ~ /p95/ || key ~ /p99/ || \
         key ~ /seconds/ || key ~ /allocs/ || key ~ /_over_best/
}
function is_number(v) {
  return v ~ /^-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/
}
# Lines look like:   "key": value,
/^[[:space:]]*"[^"]+":/ {
  line = $0
  sub(/^[[:space:]]*"/, "", line)
  key = line
  sub(/".*/, "", key)
  val = line
  sub(/^[^:]*:[[:space:]]*/, "", val)
  sub(/,[[:space:]]*$/, "", val)
  if (FILENAME == ARGV[1]) { old[key] = val; order[++n_keys] = key }
  else {
    new_[key] = val
    if (!(key in old)) order[++n_keys] = key
  }
}
END {
  printf "%-32s %14s %14s %9s\n", "metric", "old", "new", "delta"
  regressions = 0
  for (i = 1; i <= n_keys; ++i) {
    key = order[i]
    ov = (key in old) ? old[key] : "-"
    nv = (key in new_) ? new_[key] : "-"
    if (!(key in old) || !(key in new_) || !is_number(ov) || !is_number(nv)) {
      printf "%-32s %14s %14s %9s\n", key, ov, nv, "-"
      continue
    }
    if (ov + 0 == 0) {
      printf "%-32s %14s %14s %9s\n", key, ov, nv, "n/a"
      continue
    }
    pct = (nv - ov) / ov * 100.0
    flag = ""
    if (lower_is_better(key) && pct > threshold) flag = "  << REGRESSION (latency up)"
    if (!lower_is_better(key) && pct < -threshold) flag = "  << REGRESSION (metric down)"
    if (flag != "") ++regressions
    printf "%-32s %14s %14s %+8.1f%%%s\n", key, ov, nv, pct, flag
  }
  printf "\n%d regression(s) beyond %s%% (%s -> %s)\n", regressions, threshold, old_name, new_name
  if (strict && regressions > 0) exit 1
}
' "$old_file" "$new_file"
