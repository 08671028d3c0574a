#!/usr/bin/env python3
"""Runs one benchmark run and prints its result as the last stdout line.

    python3 perfbench/run.py --workload cold|refactor|service --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (and the library sources
it compiles from ../src) into .bench_build/perfbench on first use, runs the
plu_perfbench binary, and prints one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from the traced run; a run whose metric names or units
differ from BENCHMARK.json fails.  A build that is unoptimized or
sanitized is marked invalid: the result then reads "correct": false.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "plu_perfbench")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("library sources not found next to perfbench/")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "plu_perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)


def source_digest():
    """SHA-256 over the sources the binary is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def check_declared(metrics, trace):
    """Fails unless the run printed exactly the declared metrics and units."""
    want = declared_metrics(trace)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        wrong = sorted(n for n in set(got) | set(want)
                       if got.get(n) != want.get(n))
        raise RuntimeError("metrics differ from BENCHMARK.json (name or "
                           "unit): %s" % ", ".join(wrong))


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["cold", "refactor", "service"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans", help="write the traced run's spans here")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.spans:
        cmd += ["--spans", args.spans]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError("plu_perfbench exited with %d" % proc.returncode)

    build_info, metrics, outcome = None, {}, None
    for line in proc.stdout.splitlines():
        rec = json.loads(line)
        if rec.get("kind") == "build":
            build_info = rec
        elif rec.get("kind") == "result":
            outcome = rec
        elif "metric" in rec:
            value = rec["value"]
            if value is None:
                raise RuntimeError("metric %s is not finite" % rec["metric"])
            if rec["metric"] in metrics:
                raise RuntimeError("metric %s printed twice" % rec["metric"])
            metrics[rec["metric"]] = {"value": float(value),
                                      "unit": rec["unit"]}
    if build_info is None or outcome is None:
        raise RuntimeError("plu_perfbench printed no build or result record")
    check_declared(metrics, args.trace)

    build_info["git_commit"] = git_commit()
    build_info["source_sha256"] = source_digest()
    build_info["workload"] = args.workload
    build_info["seed"] = args.seed
    build_info["trace"] = args.trace
    print(json.dumps(build_info))
    valid = build_info["valid"] == 1
    if not valid:
        log("run.py: invalid build (unoptimized or sanitized); "
            "the result is marked incorrect")
    print(json.dumps({
        "correct": valid and outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError, ValueError) as e:
        log("run.py: %s" % e)
        sys.exit(1)
