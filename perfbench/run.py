"""Run one benchmark workload against the thickset sources of this checkout.

    python3 perfbench/run.py --workload gap-lemma --seed 1 --seconds 36 --trace 0

One client, closed loop: the next operation starts when the previous one has
ended.  Every operation's output is checked against ``oracles``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

Operation times are in reference seconds.  Before every operation the run
times a fixed kernel that runs no thickset code, and each operation's wall
time is multiplied by REFERENCE_KERNEL_S over the median time of the five
nearest kernels.  On a shared 2-core host the speed of the same operation moves by
up to 40% within a minute; its ratio to a kernel timed beside it moves far
less (README.md has the figures).  ``setup_s`` is the median over
SETUP_PROBES fresh interpreters started on this script, each scaled by the
kernel timed inside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Median time of ``reference_kernel`` on the host the reference figures in
# README.md come from; it turns the kernel ratio back into seconds.
REFERENCE_KERNEL_S = 0.03
SETUP_PROBES = 7


def add_src_path() -> bool:
    """Put this checkout's ``src`` first on the import path; False if the
    checkout holds no thickset sources."""
    if not (SRC / "thickset" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


@dataclass(frozen=True)
class _Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("endpoints out of order")


def reference_kernel() -> Fraction:
    """Fixed work of the kinds thickset spends its time on, with no thickset
    code: exact-rational bisection, then building, sorting and scanning a few
    thousand validated interval objects with rational endpoints.  The second
    half follows the host's memory behaviour, which the first misses."""
    for k in range(2, 26):
        lo, hi = Fraction(1), Fraction(k)
        for _ in range(40):
            mid = (lo + hi) / 2
            if mid * mid < k:
                lo = mid
            else:
                hi = mid
    n = 3 * 2048 + 1
    intervals = [_Interval(Fraction(i, n), Fraction(i + 1, n)) for i in range(0, n - 1, 3)]
    intervals.reverse()
    intervals.sort(key=lambda iv: iv.lo)
    gaps = [_Interval(a.hi, b.lo) for a, b in zip(intervals, intervals[1:])]
    return sum((g.hi - g.lo for g in gaps), Fraction(0))


def time_kernel() -> float:
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def nearest_rank(values: list[float], percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def probe_setup(args) -> float:
    """Reference seconds from starting a fresh interpreter on this script to
    the point where it would start its first timed operation.  The child
    times the kernel itself once it is ready: the parent may sit on the
    other core, whose speed can differ."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        kernel = child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return elapsed * REFERENCE_KERNEL_S / float(kernel)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not add_src_path():
        print(f"no thickset sources under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    workload.inputs(0)
    if args.probe:
        print("ready", flush=True)
        print(statistics.median(time_kernel() for _ in range(3)))
        return 0

    tracer = probes = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    else:
        probes = [probe_setup(args) for _ in range(SETUP_PROBES)]

    workdir.mkdir(parents=True)
    kernels, latencies, problems = [], [], []
    attempted = failed = incorrect = 0
    try:
        deadline = time.perf_counter() + args.seconds
        while attempted == 0 or time.perf_counter() < deadline:
            for _ in range(workload.round_size):
                inp = workload.inputs(attempted)
                kernels.append(time_kernel())
                start = time.perf_counter()
                try:
                    if tracer is None:
                        out = workload.run(inp)
                    else:
                        out = tracer.run_op(attempted, workload.run, inp)
                except Exception as exc:  # a failed operation, counted and reported
                    latencies.append(time.perf_counter() - start)
                    failed += 1
                    problems.append(f"operation {attempted} failed: {exc!r}")
                else:
                    latencies.append(time.perf_counter() - start)
                    try:
                        found = workload.check(inp, out)
                    except Exception as exc:  # malformed output is wrong output
                        found = [f"check raised {exc!r}"]
                    if found:
                        incorrect += 1
                        problems.extend(f"operation {attempted}: {p}" for p in found)
                attempted += 1
        kernels.append(time_kernel())
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    scale = [
        REFERENCE_KERNEL_S / statistics.median(kernels[max(0, i - 2):i + 3])
        for i in range(attempted)
    ]
    normalized = [lat * s for lat, s in zip(latencies, scale)]
    for problem in problems[:20]:
        print(problem, file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(probes), "s"),
            "ok_per_s": ((attempted - failed - incorrect) / sum(normalized), "ops/s"),
            "op_p50_s": (statistics.median(normalized), "s"),
            "op_tail_s": (nearest_rank(normalized, workload.tail_percentile), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"wall: op_p50_s "
              f"{statistics.median(latencies):.4f} op_tail_s "
              f"{nearest_rank(latencies, workload.tail_percentile):.4f} kernel_s "
              f"{statistics.median(kernels):.5f} ops {attempted}", file=sys.stderr)
    else:
        metrics = layers.layer_metrics(tracer, scale, workload.bytes_written)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{args.workload}-{args.seed}.tsv"))

    result = {
        "correct": incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if incorrect == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
