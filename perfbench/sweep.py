"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workload cli-session --seeds 1-10 [--trace 1]

Runs ``run.py`` once per seed, one run at a time, and prints, per metric,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median.  The runs' result lines and the summary
go to ``perfbench/out/sweep-<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        result["seed"] = seed
        result["stderr"] = proc.stderr.strip()
        runs.append(result)
        print(seed, result["attempted"], result["failed"], result["correct"],
              {k: round(v["value"], 5) for k, v in result["metrics"].items()
               if not args.trace}, file=sys.stderr)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0,
                         "unit": runs[0]["metrics"][name]["unit"]}
        print(f"{name:40s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {summary[name]['spread']:.4f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"attempted {[r['attempted'] for r in runs]}  failed share {sorted(shares)}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"sweep-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
