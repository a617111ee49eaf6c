#!/usr/bin/env python3
"""Steadiness mode: repeat every workload of BENCHMARK.json with one seed
per run and print each metric's median, quartiles and spread.

    python3 benchmark/steady.py                      # 10 untraced runs per workload
    python3 benchmark/steady.py --runs 5 --workloads spot_replay
    python3 benchmark/steady.py --trace 1 --runs 3   # per-layer metrics
    python3 benchmark/steady.py --out benchmark/trajectory/<name>.json

Run it from the root of the repository. Spread is the distance between
the first and third quartile (Python's statistics.quantiles, n=4) as a
share of the median, the figure a run-to-run bound is checked against.
With --trace 1 the table also reports the tracing overhead: the traced
runs' median run_s minus the untraced median, when --out names a file that
already holds untraced results for the workload.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return result, wall


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out", help="JSON file to record the summary in (merged by workload)")
    args = ap.parse_args()

    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in spec}
    record = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    record.setdefault("runs", {})
    record["machine"] = {"nproc": os.cpu_count(), "platform": platform.platform()}
    steady = True
    for workload in args.workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        values = {}
        walls = []
        failed = attempted = 0
        for seed in seeds:
            result, wall = run_once(bench["command"], workload, seed, args.seconds, args.trace)
            walls.append(wall)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: {wall:.1f} s wall, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
        print(f"{workload} (trace {args.trace}, {args.runs} seeds from {args.first_seed}, "
              f"{args.seconds} s runs, {max(walls):.0f} s slowest wall, "
              f"{failed}/{attempted} failed)")
        print(f"  {'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        rows = {}
        for name, vs in values.items():
            med, q1, q3, spread = summarise(vs)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                ok = spread <= bound / 3
                steady &= ok
                flag = "" if ok else "  <- above a third of the bound"
            print(f"  {name:<36} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "samples": len(vs), "values": vs}
        key = f"{workload}/trace{args.trace}"
        record["runs"][key] = {"seeds": seeds, "seconds": args.seconds, "failed": failed,
                               "attempted": attempted, "max_wall_s": max(walls),
                               "metrics": rows}
        untraced = record["runs"].get(f"{workload}/trace0")
        if args.trace and untraced and "trace.run_s" in rows:
            overhead = rows["trace.run_s"]["median"] - untraced["metrics"]["run_s"]["median"]
            record["runs"][key]["tracing_overhead_s"] = overhead
            print(f"  tracing overhead: {overhead:+.4f} s of run_s")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
