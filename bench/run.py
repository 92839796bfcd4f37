#!/usr/bin/env python3
"""The promc benchmark.

    python3 bench/run.py --workload chainf2-factor --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in its own child
process (bench/worker.py) with promc's sources from ``src/`` and one
BLAS thread, so that its peak resident set is its own.  With ``--trace
0`` the last line of standard output is one JSON object with every
end-to-end metric named in BENCHMARK.json; with ``--trace 1`` it holds
every per-layer metric instead, per round of the workload's inputs.
Workloads, metrics and units are those of BENCHMARK.json.  The raw
result and, for traced runs, every span are kept under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "promc", "__init__.py")):
        fail(f"no promc sources under {src}")

    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    env.update({name: "1" for name in ONE_THREAD})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", src, "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    raw = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in raw["metrics"]]
    if missing:
        fail(f"workload did not report {missing}")
    metrics = {m["name"]: {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}

    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(dict(result, rounds=raw["rounds"], raw_metrics=raw["metrics"]),
                  fh, indent=1)
    for key, m in metrics.items():
        print(f"{args.workload:18s} {key:42s} {m['value']:14.6g} {m['unit']}")
    if args.trace:
        print(f"{args.workload:18s} {'traced.ops_per_s (overhead check)':42s} "
              f"{raw['metrics']['traced.ops_per_s']:14.6g} 1/s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
