#!/usr/bin/env python3
"""Steadiness check for the pipebench benchmark.

    python3 pipebench/steady.py run [--workloads a,b] [--seeds 1-10]
                                    [--seconds S] [--trace 0|1] [--out FILE]
    python3 pipebench/steady.py compare FIRST.json SECOND.json

`run` runs every workload once per seed through run.py, printing every
metric with its unit (any failed run stops it with a non-zero exit), then,
given two or more seeds, per end-to-end metric the median, the quartiles
and the spread (quartile distance as a share of the median, from
statistics.quantiles(n=4)), checked against a third of the metric's bound
in BENCHMARK.json. `--out`
saves the raw results. `compare` takes two saved sets of the same code
and reports, per workload and metric, how far the second median moved in
the metric's worse direction, against its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 or result is None or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {done.returncode}): {lines[-1:]}")
    return {name: (m["value"], m["unit"])
            for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def bounds_of(benchmark):
    return {m["name"]: m for m in benchmark["end_to_end"]}


def cmd_run(args):
    benchmark = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in benchmark["workloads"]])
    seeds = parse_seeds(args.seeds)
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = bounds_of(benchmark)
    results = {}
    steady = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            measured = run_once(workload, seed, seconds, args.trace)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={value:.6g} {unit}"
                for name, (value, unit) in measured.items()), flush=True)
            runs.append({name: value for name, (value, _) in measured.items()})
        results[workload] = runs
        if len(runs) < 2:
            continue
        print(f"\n{workload} ({len(runs)} runs of {seconds} s)")
        print(f"  {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'limit':>8}")
        for name in runs[0]:
            median, q1, q3, spread = summarize([r[name] for r in runs])
            limit = bounds[name]["bound"] / 3 if name in bounds else None
            flag = ""
            if limit is not None and name != "setup_s" and spread > limit:
                flag = "  UNSTEADY"
                steady = False
            limit_text = f"{limit:8.4f}" if limit is not None else " " * 8
            print(f"  {name:<14} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {limit_text}{flag}")
        print()
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": seeds, "seconds": seconds,
                       "trace": args.trace, "results": results}, f, indent=1)
    return 0 if steady else 1


def cmd_compare(args):
    benchmark = load_benchmark()
    bounds = bounds_of(benchmark)
    with open(args.first) as f:
        first = json.load(f)["results"]
    with open(args.second) as f:
        second = json.load(f)["results"]
    ok = True
    for workload in first:
        if workload not in second:
            continue
        print(f"{workload}")
        for name, spec in bounds.items():
            a = statistics.median(r[name] for r in first[workload])
            b = statistics.median(r[name] for r in second[workload])
            if spec["better"] == "lower":
                worse = (b - a) / a if a else 0.0
            else:
                worse = (a - b) / a if a else 0.0
            flag = "" if worse <= spec["bound"] else "  WORSE"
            ok = ok and not flag
            print(f"  {name:<14} {a:14.6g} {b:14.6g} worse by {worse:+8.4f} "
                  f"(bound {spec['bound']}){flag}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workloads")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--seconds", type=int)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out")
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
