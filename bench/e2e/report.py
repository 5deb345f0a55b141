"""Reader mode of bench/e2e/run.sh: runs every workload, prints one
`workload metric value unit` line per metric, writes them to a flat JSON file,
and optionally reports tracing overhead or run-to-run spread against the
bounds in BENCHMARK.json. Standard library only."""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["serve_mixed", "serve_overload", "decode_sessions", "batch_offline"]


def run_one(args, workload, seed, trace_dir=None):
    """Runs one workload process; returns {metric: (value, unit)} from its
    `workload metric value unit` lines."""
    cmd = [args.bin, "--workload", workload, "--seed", str(seed)]
    if args.quick:
        cmd += ["--quick"]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"report.py: {' '.join(cmd)} exited with {proc.returncode}")
    metrics = {}
    for line in lines[:-1]:
        _, name, value, unit = line.split()
        metrics[name] = (float(value), unit)
    return metrics


def bounds():
    """{metric: bound} for the end-to-end metrics, from BENCHMARK.json."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def spread_table(workload, runs, bound):
    print(f"\n{workload}: {len(runs)} runs, consecutive seeds")
    print(f"{'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} "
          f"{'range/med':>9} {'bound':>6}")
    for name in runs[0]:
        values = [r[name][0] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(values) - min(values)) / med if med else 0.0
        b = bound.get(name)
        flag = "" if b is None or iqr <= b else "  <- spread above bound"
        print(f"{name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {iqr:>8.3f} {rng:>9.3f} "
              f"{'-' if b is None else format(b, '.3g'):>6}{flag}")
    print()


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--bin", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--trace")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--out", required=True)
    args = p.parse_args()

    flat = {}
    for workload in WORKLOADS:
        runs = [run_one(args, workload, args.seed + k) for k in range(args.repeat)]
        for name, (_, unit) in runs[0].items():
            value = statistics.median(r[name][0] for r in runs)
            flat[f"{workload}.{name}"] = value
            print(f"{workload} {name} {value:.6g} {unit}")
        if args.trace:
            os.makedirs(args.trace, exist_ok=True)
            traced = run_one(args, workload, args.seed, args.trace)
            for name, (value, unit) in traced.items():
                if name not in runs[0]:
                    flat[f"{workload}.{name}"] = value
                    print(f"{workload} {name} {value:.6g} {unit}")
            for name, (value, unit) in runs[0].items():
                delta = traced[name][0] - value
                flat[f"{workload}.trace_overhead.{name}"] = delta
                print(f"{workload} trace_overhead.{name} {delta:+.6g} {unit}")
        sys.stdout.flush()
        if args.repeat > 1:
            spread_table(workload, runs, bounds())

    with open(args.out, "w") as f:
        json.dump(flat, f, indent=1, sort_keys=True)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
