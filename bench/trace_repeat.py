#!/usr/bin/env python3
"""Traced and untraced runs of one workload and seed, alternated.

    python3 bench/trace_repeat.py --workload chainf2-factor --seed 1 --seconds 20

Runs PAIRS traced and PAIRS untraced runs, alternating which comes
first.  Checks that every per-layer count (the metrics with unit
``count``) is the same in every traced run, and prints the tracing
overhead: how much lower the median ``ops_per_s`` is with the wrappers
installed than without.  Host speed drifts between runs, so one pair
cannot show an overhead of a few percent.  Exits 1 if a count differs.
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


PAIRS = 3


def run(args, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        return result["metrics"]["ops_per_s"]["value"], result
    raw = os.path.join(HERE, "out", f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{trace}.json")
    with open(raw) as fh:
        return json.load(fh)["raw_metrics"]["traced.ops_per_s"], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()

    speed = {0: [], 1: []}
    traced = []
    for i in range(PAIRS):
        for trace in ((1, 0) if i % 2 == 0 else (0, 1)):
            ops, result = run(args, trace)
            speed[trace].append(ops)
            if trace:
                traced.append(result["metrics"])
    first = traced[0]
    counts = [k for k, m in first.items() if m["unit"] == "count"]
    differ = [k for k in counts
              if any(t[k]["value"] != first[k]["value"] for t in traced)]
    for k in counts:
        vals = [t[k]["value"] for t in traced]
        print(f"{k:40s} " + " ".join(f"{v:14.6g}" for v in vals)
              + ("  DIFFERS" if k in differ else ""))
    on, off = statistics.median(speed[1]), statistics.median(speed[0])
    print(f"{args.workload}: {len(counts)} counts, {len(differ)} differ; "
          f"ops_per_s traced {' '.join(f'{x:.4g}' for x in speed[1])}, "
          f"untraced {' '.join(f'{x:.4g}' for x in speed[0])}; "
          f"overhead of the medians {1 - on / off:.1%}")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
