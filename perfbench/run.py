"""cavitrap benchmark: one workload in one process, BLAS and OpenMP pinned to one thread.

    python3 perfbench/run.py --workload {search,walk,scan} --seed S --seconds T --trace {0,1}

Sets up the workload's inputs from the seed three times, then repeats whole
rounds of its fixed work until T seconds have passed, checks the first
round's outputs against oracle.py and every later round against the first,
and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s, wall_s (median round) and
peak_rss_mib. With --trace 1 untraced and traced rounds alternate and the
metrics are the per-layer ones of layers.METRICS, medians over the traced
rounds, plus trace.overhead_s. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import env
import layers

env.pin_threads(1)

SETUP_REPEATS = 3
WORKLOADS = ("search", "walk", "scan")


def parse_args():
    parser = argparse.ArgumentParser(description="cavitrap benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_seconds():
    """Median of fresh interpreters that import the program, as a user's run does."""
    code = f"import sys; sys.path.insert(0, {str(env.ROOT / 'src')!r}); import cavitrap.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def measure(cv, workload, seconds, trace):
    """Rounds until `seconds` pass; traced rounds alternate with untraced ones.

    Round 1's outputs are checked as soon as it ends; later rounds' outputs
    are only digested, so memory does not depend on the number of rounds.
    Returns (ops per round, names of the failed ops, problems, rounds), each
    round being (traced, wall, output digest, per-layer metrics or None).
    """
    rounds = []
    start = time.perf_counter()
    while True:
        tracer = layers.Tracer() if trace and len(rounds) % 2 == 1 else None
        if tracer is not None:
            tracer.install(cv)
        try:
            wall, ops = workload.run_round()
        finally:
            if tracer is not None:
                tracer.uninstall()
        digest = _digest(hashlib.sha256(), workload.fingerprint(ops)).hexdigest()
        if not rounds:
            failed_flags, problems = workload.check(ops)
            n_ops = len(ops)
            failed_names = [op.name for op, bad in zip(ops, failed_flags) if bad]
        elif digest != rounds[0][2]:
            problems.append(f"round {len(rounds) + 1} outputs differ from round 1 on the same inputs")
        del ops
        rounds.append((tracer is not None, wall, digest, tracer and tracer.metrics()))
        if time.perf_counter() - start >= seconds and (not trace or len(rounds) % 2 == 0):
            return n_ops, failed_names, problems, rounds


def _digest(h, value):
    """Feed a nest of lists, tuples, arrays, bytes and scalars into hash h."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _digest(h, item)
    elif isinstance(value, (bytes, bytearray)):
        h.update(value)
    elif hasattr(value, "tobytes"):
        h.update(value.tobytes())
    else:
        h.update(repr(value).encode())
    return h


def main():
    args = parse_args()
    cv = env.load_cavitrap()
    import cavitrap.cli  # noqa: F401  (driven by `search`, wrapped by the tracer)
    import numpy as np

    import workloads

    import_s = import_seconds()
    (env.ROOT / ".perfbench-work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=env.ROOT / ".perfbench-work")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload = {"search": workloads.Search, "walk": workloads.Walk,
                        "scan": workloads.Scan}[args.workload]()
            workload.setup(cv, args.seed, workdir)
            setups.append(time.perf_counter() - t)
        n_ops, failed_names, problems, rounds = measure(cv, workload, args.seconds, args.trace)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        traced = [m for is_traced, _, _, m in rounds if is_traced]
        values = {name: statistics.median(m[name] for m in traced)
                  for name in layers.METRICS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(w for is_traced, w, _, _ in rounds if is_traced)
            - statistics.median(w for is_traced, w, _, _ in rounds if not is_traced)
        )
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in layers.METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(w for _, w, _, _ in rounds), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }

    for problem in problems:
        print(f"perfbench: CHECK FAILED {problem}", file=sys.stderr)
    threads = ",".join(f"{k}={v}" for k, v in env.thread_settings().items())
    print(f"# workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"trace={args.trace} threads[{threads}] python={platform.python_version()} "
          f"numpy={np.__version__} machine={platform.machine()} "
          f"cpus={len(os.sched_getaffinity(0))}")
    print(f"# round seconds: {[round(w, 3) for _, w, _, _ in rounds]}")
    print(f"# failed each round: {failed_names}")
    print(json.dumps(dict(
        correct=not problems,
        attempted=n_ops * len(rounds),
        failed=len(failed_names) * len(rounds),
        metrics=metrics,
    )))
    return 0


if __name__ == "__main__":
    sys.exit(main())
