#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

Runs each workload once per seed (seeds seed0, seed0+1, ...) with tracing
off, then reports for each metric the median of its values and the
distance between the first and third quartiles (statistics.quantiles with
n=4) as a share of the median, next to the metric's bound in
BENCHMARK.json. With --sets 2 it does this twice and also reports how far
each median moved from the first set to the second, in the direction the
metric gets worse, as a share of the first median. Run from the
repository root:

    python3 perfbench/spread.py --runs 10 --sets 2 --out perfbench/spread.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure(workload, runs, seed0, seconds, bounds):
    """Runs one ten-run set of a workload and summarizes every metric."""
    values, walls, failed = {}, [], 0
    for i in range(runs):
        t0 = time.time()
        res = run_once(workload, seed0 + i, seconds)
        walls.append(time.time() - t0)
        if not res["correct"] or res["failed"]:
            failed += 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"{workload} seed={seed0 + i} wall={walls[-1]:.1f}s correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
    rows = {}
    for name, vs in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        b = bounds.get(name)
        rows[name] = {"median": med, "spread": spread, "bound": b, "values": vs}
        flag = "" if b is None or spread < b / 3 else "  <-- above bound/3"
        print(f"{workload:14s} {name:20s} median={med:12.4f} spread={spread:7.4f} bound={b}{flag}")
    return {"runs": runs, "seconds": seconds, "wall_s_max": max(walls),
            "failed_runs": failed, "metrics": rows}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args()

    sets = []
    for k in range(args.sets):
        print(f"# set {k + 1}", file=sys.stderr)
        sets.append({w: measure(w, args.runs, args.seed0, args.seconds, bounds)
                     for w in args.workloads.split(",")})
    summary = {"sets": sets}
    if len(sets) > 1:
        worse = {}
        for w, first in sets[0].items():
            for name, m in first["metrics"].items():
                last = sets[-1][w]["metrics"].get(name)
                if last is None or not m["median"]:
                    continue
                change = (last["median"] - m["median"]) / m["median"]
                worse.setdefault(w, {})[name] = change if lower.get(name, True) else -change
                b = bounds.get(name)
                flag = "" if b is None or worse[w][name] <= b else "  <-- worse than bound"
                print(f"{w:14s} {name:20s} median worsened by {worse[w][name]:+.4f} bound={b}{flag}")
        summary["median_worsened"] = worse
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
