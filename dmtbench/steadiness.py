#!/usr/bin/env python3
"""Measure how steady the benchmark is, from the root of a checkout.

    python3 dmtbench/steadiness.py --runs 10 [--workload W ...] \
        [--first-seed 1] [--out dmtbench/steadiness.json]

Runs each workload --runs times with --trace 0, each time with another
seed, at BENCHMARK.json's run_seconds.  For every end-to-end metric it
prints the median, the quartiles (statistics.quantiles(values, n=4))
and the interquartile range as a share of the median, next to the
metric's bound; --out also records every value.  Exits non-zero when
a run fails or reports incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("dmtbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"({out.returncode}): {out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect: {result}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "runs": args.runs,
              "workloads": {}}
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            t0 = time.time()
            res = run_once(w, seed, spec["run_seconds"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {time.time() - t0:.1f} s, attempted "
                  f"{res['attempted']}, failed {res['failed']}", flush=True)
        rows = {}
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "iqr_share": spread, "bound": bounds.get(name),
                          "values": v}
            print(f"  {name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  iqr/median {spread * 100:.2f}%  bound "
                  f"{bounds.get(name, 0) * 100:.0f}%", flush=True)
        report["workloads"][w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
