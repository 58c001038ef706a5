"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads thermo_sweep,leaf_sums --seeds 1-10 --seconds 20

Runs ``run.py`` once per workload and seed, in separate processes, one
after another.  Each run's result line is appended to
``perfbench/results/<workload>.jsonl``; the summary gives, per metric, the
median and the distance between the first and third quartiles (from
``statistics.quantiles(values, n=4)``) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True, help="comma list")
    ap.add_argument("--seeds", default="1-10", help="inclusive range 'lo-hi'")
    ap.add_argument("--seconds", default="20")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(lo, hi + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(workload=workload, seed=seed)
            with open(out_dir / f"{workload}.jsonl", "a") as fh:
                fh.write(json.dumps(result) + "\n")
            runs.append(result)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: all correct {all(r['correct'] for r in runs)}; failed shares {shares}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:24s} median {median:.6g}  IQR/median {spread:6.1%}  "
                  f"min {min(values):.6g}  max {max(values):.6g}")


if __name__ == "__main__":
    main()
