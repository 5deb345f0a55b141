#!/usr/bin/env bash
# Paired end-to-end benchmark runs of two source trees, judged against the
# bounds in BENCHMARK.json.
#
# Usage: scripts/bench_pairs.sh PARENT_TREE CHANGE_TREE [PAIRS] [SECONDS]
#
# For each pair i = 1..PAIRS (default 10) and each workload listed in
# CHANGE_TREE/BENCHMARK.json, runs
#   bash <tree>/bench/e2e/run.sh --workload W --seed i --seconds SECONDS
# on both trees, alternating which tree goes first (odd pairs: parent
# first), so a host that drifts slower or faster during the session loads
# both sides alike. SECONDS defaults to BENCHMARK.json's run_seconds. Each
# tree builds itself into its own build/bench-e2e on its first run; build
# output goes to bench_pairs.log in the current directory.
#
# Then prints every run (side, workload, seed, exit code, end-to-end
# metrics) and, for each workload and end-to-end metric over the runs that
# exited 0, both sides' median and quartiles, the change / parent ratio of
# the medians and the metric's bound, flagged
#   WORSE       the change's median is worse than the parent's by more than
#               the bound (relative, in the metric's `better` direction);
#   unresolved  the parent's own quartile spread, (q3 - q1) / median, is
#               wider than the bound, so these runs cannot tell.
#
# Exits non-zero when any run exits non-zero or reports "correct": false.
# Flags alone never change the exit status: read the table.
set -uo pipefail

usage() {
  echo "usage: scripts/bench_pairs.sh PARENT_TREE CHANGE_TREE [PAIRS] [SECONDS]" >&2
  exit 2
}
[ $# -ge 2 ] && [ $# -le 4 ] || usage
parent="$(cd "$1" && pwd)" || usage
change="$(cd "$2" && pwd)" || usage
pairs="${3:-10}"
spec="$change/BENCHMARK.json"
[ -f "$spec" ] || { echo "bench_pairs: no $spec" >&2; exit 2; }
field() {  # field EXPR: a Python expression over `spec`, BENCHMARK.json
  python3 -c "import json, sys; spec = json.load(open(sys.argv[1])); print($1)" "$spec"
}
seconds="${4:-$(field 'spec["run_seconds"]')}"
workloads="$(field '" ".join(w["name"] for w in spec["workloads"])')"

results="$(mktemp)"
trap 'rm -f "$results"' EXIT
log="$PWD/bench_pairs.log"
: > "$log"
status=0

# run SIDE TREE WORKLOAD SEED: one process; appends its result line (side,
# workload, seed, exit code, and the run's final JSON line) to $results.
run() {
  local side="$1" tree="$2" workload="$3" seed="$4" out code last
  out="$(bash "$tree/bench/e2e/run.sh" --workload "$workload" --seed "$seed" \
           --seconds "$seconds" 2>>"$log")"
  code=$?
  last="$(printf '%s\n' "$out" | tail -n 1)"
  printf '%s\t%s\t%s\t%s\t%s\n' "$side" "$workload" "$seed" "$code" "$last" >> "$results"
  if [ "$code" -ne 0 ] || ! printf '%s' "$last" | grep -q '"correct": true'; then
    echo "bench_pairs: $side $workload seed $seed exited $code or was not correct" >&2
    status=1
  fi
  echo "pair $seed $workload $side: exit $code" >&2
}

for ((i = 1; i <= pairs; i++)); do
  for w in $workloads; do
    if ((i % 2 == 1)); then
      run parent "$parent" "$w" "$i"
      run change "$change" "$w" "$i"
    else
      run change "$change" "$w" "$i"
      run parent "$parent" "$w" "$i"
    fi
  done
done

python3 - "$spec" "$results" <<'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
runs = {}  # (side, workload) -> [metrics dict]
print("runs:")
for line in open(sys.argv[2]):
    side, workload, seed, code, last = line.rstrip("\n").split("\t", 4)
    try:
        result = json.loads(last)
    except ValueError:
        print(f"  {side:<6} {workload:<16} seed {seed:>3} exit {code}: no result line")
        continue
    metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    print(f"  {side:<6} {workload:<16} seed {seed:>3} exit {code} correct "
          f"{result.get('correct')}: " + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()))
    if code == "0":
        runs.setdefault((side, workload), []).append(metrics)
print()


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


print(f"{'workload':<16} {'metric':<15} {'n':>3} {'parent med [q1, q3]':>34} "
      f"{'change med [q1, q3]':>34} {'ratio':>7} {'bound':>6}  flag")
for w in spec["workloads"]:
    name = w["name"]
    for m in spec["end_to_end"]:
        metric, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        p = [r[metric] for r in runs.get(("parent", name), []) if metric in r]
        c = [r[metric] for r in runs.get(("change", name), []) if metric in r]
        if not p or not c:
            continue
        pm, pq1, pq3 = summary(p)
        cm, cq1, cq3 = summary(c)
        ratio = f"{cm / pm:.3f}" if pm else "-"
        worse = cm > pm * (1 + bound) if lower else cm < pm * (1 - bound)
        spread = (pq3 - pq1) / abs(pm) if pm else 0.0
        flags = []
        if worse:
            flags.append("WORSE")
        if spread > bound:
            flags.append(f"unresolved (parent spread {spread:.3f})")
        print(f"{name:<16} {metric:<15} {min(len(p), len(c)):>3} "
              f"{f'{pm:.6g} [{pq1:.6g}, {pq3:.6g}]':>34} "
              f"{f'{cm:.6g} [{cq1:.6g}, {cq3:.6g}]':>34} {ratio:>7} {bound:>6.3g}  "
              f"{' '.join(flags)}")
EOF
exit $status
