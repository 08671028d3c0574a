#!/usr/bin/env python3
"""Checks that the benchmark is steady on the commit it runs on.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads ...]

Run from the repository root.  Makes `--sets` sets of `--runs` end-to-end
runs per workload (each run with its own seed, the seeds of set k starting
at --seed-base + 1000 k), prints each end-to-end metric's median, quartiles
and quartile spread (Q3 - Q1 over the median) per set, and says whether

  * each spread stays within the metric's bound from BENCHMARK.json --
    "steady" -- and below a third of it -- "margin";
  * each later set's median differs from the first set's, in either
    direction, by no more than the bound -- "agree".

Single runs on a shared host vary far more than the bounds, so only medians
of sets are compared.  Exits 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900, cwd=ROOT)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError("run failed: %s seed %d" % (workload, seed))
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise RuntimeError("incorrect result: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative: better)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    metrics = bench["end_to_end"]

    ok = True
    for w in args.workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.seed_base + 1000 * s + i
                runs.append(run_once(w, seed, args.seconds))
                print("  %s set %d seed %d: %s" % (
                    w, s, seed, " ".join("%s=%.4g" % kv
                                         for kv in runs[-1].items())),
                      file=sys.stderr, flush=True)
            sets.append(runs)
        print("%s (%d sets of %d runs)" % (w, args.sets, args.runs))
        print("  %-12s %4s %11s %11s %11s %7s %6s  %s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound",
            "verdict"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s, runs in enumerate(sets):
                q1, q2, q3 = quartiles([r[name] for r in runs])
                spread = (q3 - q1) / q2
                verdict = ["steady" if spread <= bound else "UNSTEADY",
                           "margin" if spread < bound / 3 else "no-margin"]
                ok = ok and spread <= bound
                if first_median is None:
                    first_median = q2
                else:
                    d = worse_by(first_median, q2, m["better"])
                    agree = abs(d) <= bound
                    verdict.append("%s (%+.1f%%)" % (
                        "agree" if agree else "DISAGREE", 100 * d))
                    ok = ok and agree
                print("  %-12s %4d %11.5g %11.5g %11.5g %6.1f%% %5.0f%%  %s" % (
                    name, s, q1, q2, q3, 100 * spread, 100 * bound,
                    " ".join(verdict)))
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
