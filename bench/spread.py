#!/usr/bin/env python3
"""Run one workload once per seed and print, for every metric, the median
and the quartile spread: (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``.

    python3 bench/spread.py --workload chainf2-lift --seeds 1-10 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()

    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']}, attempted "
              f"{result['attempted']}, failed {result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2 or not med:
            print(f"{name:36s} median {med:12.6g}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:36s} median {med:12.6g}  spread {(q3 - q1) / med:7.2%}")


if __name__ == "__main__":
    main()
