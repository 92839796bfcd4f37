"""One workload in one process: set up, run whole rounds for the given
number of seconds (setting up again between operations), check every output,
and print the raw result as the last line of standard output (one JSON
object).

Started by run.py with promc's sources on PYTHONPATH and one BLAS
thread; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

MIN_OPS = 100     # at least ten latency samples beyond p90
MIN_ROUNDS = 3    # certificate bytes compared between rounds
SETUP_SAMPLES = (5, 9)  # set-up samples a run, spread over its measured time
SETUP_SHARE = 0.5       # of --seconds, the most that set-up samples may add
SETUP_SAMPLE_S = 0.2    # builds shorter than this are repeated within a sample


def _args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out-dir", required=True)
    return ap.parse_args()


class SetupSampler:
    """Set-up sampled across the run like the operations, not only at its
    start, where one moment's host speed decides it.

    The first build (the one whose inputs are used) is the first sample.
    A run takes nine samples, or fewer (never under five) where nine
    would add more than SETUP_SHARE of *seconds* to the run: the
    workload's run time is bounded, and a 2-second build sampled nine
    times doubles it.  After every seconds / (samples - 1) of measured
    time, between two operations and outside the measured time, the
    inputs are built again; a run that ends early takes the rest at its
    end.  A build shorter than SETUP_SAMPLE_S is repeated within one
    sample, which is then the mean of its builds.
    ``finish`` gives the median of the samples as the Harrell-Davis
    estimate, like the latency quantiles: the host's speed switches
    between states, and the plain middle sample jumps from one state's
    cluster of samples to the other's between runs."""

    def __init__(self, rebuild, first_s, seconds):
        self.rebuild = rebuild
        self.samples = [first_s]
        self.reps = max(1, math.ceil(SETUP_SAMPLE_S / first_s))
        fewest, most = SETUP_SAMPLES
        affordable = 1 + int(SETUP_SHARE * seconds / (self.reps * first_s))
        self.count = max(fewest, min(most, affordable))
        self.every = seconds / (self.count - 1)

    def due(self, measured):
        n = len(self.samples)
        return n < self.count and measured >= n * self.every

    def sample(self):
        t = time.perf_counter()
        for _ in range(self.reps):
            self.rebuild()
        self.samples.append((time.perf_counter() - t) / self.reps)

    def finish(self):
        while len(self.samples) < self.count:
            self.sample()
        return quantile(self.samples, 0.5)


def measure(w, items, seconds, setup=None):
    """Closed loop with one caller: each operation starts when the
    previous one (and its check and replay) has finished.  Runs whole
    rounds until the rounds took *seconds*, MIN_OPS operations were
    attempted and MIN_ROUNDS rounds are done.  *setup*, a SetupSampler,
    takes its samples between operations, outside the measured time."""
    op_ns, replay_ns, wrong = [], [], []
    sizes = {}
    attempted = failed = rounds = cert_bytes = 0
    measured = 0.0
    clock = time.perf_counter_ns
    while True:
        for idx, item in enumerate(items):
            if setup is not None and setup.due(measured):
                setup.sample()
            start = time.perf_counter()
            attempted += 1
            t0 = clock()
            try:
                out = w.op(item)
            except Exception as e:  # noqa: BLE001 - counted and reported
                failed += 1
                print(f"op {idx} failed: {e!r}", file=sys.stderr)
                measured += time.perf_counter() - start
                continue
            op_ns.append(clock() - t0)
            err = w.check(item, out)
            cert = w.certify(item, out)
            if idx not in sizes:
                sizes[idx] = w.cert_size(cert)
            cert_bytes += sizes[idx]
            t2 = clock()
            try:
                rerr = w.replay(item, cert)
            except Exception as e:  # noqa: BLE001 - a rejected replay
                rerr = f"replay raised {e!r}"
            replay_ns.append(clock() - t2)
            for e in (err, rerr):
                if e:
                    wrong.append(f"input {idx}: {e}")
            measured += time.perf_counter() - start
        rounds += 1
        if measured >= seconds and attempted >= MIN_OPS and rounds >= MIN_ROUNDS:
            break
    return {"op_ns": op_ns, "replay_ns": replay_ns, "wrong": wrong,
            "attempted": attempted, "failed": failed, "rounds": rounds,
            "cert_bytes": cert_bytes, "wall_s": measured}


def quantile(samples, q):
    """The q-quantile of *samples* as a weighted mean of all order
    statistics: the Harrell-Davis estimator, with its Beta weights
    replaced by their normal approximation (close for the sample sizes
    here: nine set-up samples, 100 or more latencies).  A run's latencies fall in groups, one per kind
    of input, with gaps between them; the plain order statistic at the
    median or p90 rank jumps across such a gap between runs."""
    xs = sorted(samples)
    n = len(xs)
    scale = math.sqrt(2 * q * (1 - q) / (n + 2))

    def cdf(p):
        return 0.5 * (1 + math.erf((p - q) / scale))

    weights = [cdf(i / n) - cdf((i - 1) / n) for i in range(1, n + 1)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(setup_s, m):
    op_ms = [t / 1e6 for t in m["op_ns"]]
    rep_ms = [t / 1e6 for t in m["replay_ns"]]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "op_p50_ms": quantile(op_ms, 0.5),
        "op_p90_ms": quantile(op_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "verify_per_s": len(rep_ms) / (sum(rep_ms) / 1e3),
        "verify_p50_ms": quantile(rep_ms, 0.5),
        "cert_kb_per_op": m["cert_bytes"] / len(op_ms) / 1e3,
    }


def import_ms(src, launches=3):
    """Self time of promc's own modules (numpy excluded) while importing
    promc.cli, from ``python -X importtime``; median of a few launches."""
    env = dict(os.environ, PYTHONPATH=src)
    totals = []
    for _ in range(launches):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import promc.cli"],
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        us = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*(\d+)\s*\|\s*\d+\s*\|\s*(\S+)", line)
            if m and (m.group(2) == "promc" or m.group(2).startswith("promc.")):
                us += int(m.group(1))
        totals.append(us / 1e3)
    return statistics.median(totals)


def main():
    args = _args()
    # stay on one CPU: on a shared host the cores run at different speeds
    # and a migration mid-run shows up as noise
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import promc
    if not os.path.abspath(promc.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.exit(f"promc was imported from {promc.__file__}, not from {args.src}")

    import tracing
    import workloads

    workdir = os.path.join(args.out_dir, f"work-{args.workload}-{os.getpid()}")
    w = workloads.make(args.workload, workdir)
    try:
        t0 = time.perf_counter()
        items = w.build(args.seed)
        first_build = time.perf_counter() - t0
        # the inputs live for the whole run: keep the collector off them
        gc.collect()
        gc.freeze()

        tracer = setup = None
        if args.trace:
            # no rebuilds: the per-layer figures cover the rounds alone
            tracer = tracing.Tracer()
            tracer.install()
        else:
            setup = SetupSampler(lambda: w.build(args.seed), first_build,
                                 args.seconds)
        m = measure(w, items, args.seconds, setup)
        setup_s = setup.finish() if setup is not None else first_build
        if tracer is not None:
            layers = tracer.summary()
            tracer.uninstall()
        m["wrong"] += w.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(setup_s, m)
    tag = f"{args.workload} seed {args.seed}"
    print(f"{tag}: {len(items)} inputs a round, {m['rounds']} rounds, "
          f"{len(m['op_ns'])} operations in {m['wall_s']:.1f} s; "
          + (f"set-up samples {' '.join(f'{x:.4g}' for x in setup.samples)} s; "
             if setup else "") +
          f"ops_per_s {e2e['ops_per_s']:.4g}"
          + (" (traced)" if tracer else ""), file=sys.stderr)
    for reason in m["wrong"][:10]:
        print(f"WRONG {reason}", file=sys.stderr)

    if tracer is None:
        metrics = e2e
    else:
        # per round, so that counts repeat exactly whatever the run length
        metrics = {k: v / m["rounds"] for k, v in layers.items()}
        metrics["cli.import_ms"] = import_ms(args.src)
        metrics["traced.ops_per_s"] = e2e["ops_per_s"]
        tracer.write(os.path.join(args.out_dir,
                                  f"trace-{args.workload}-seed{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": m["rounds"]})
    print(json.dumps({"correct": not m["wrong"], "attempted": m["attempted"],
                      "failed": m["failed"], "rounds": m["rounds"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
