#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload window_olhc --seeds 1-10 [--trace 0]

For every metric it prints the median over the runs and the distance
between the first and third quartiles (Python's
`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound from BENCHMARK.json and a flag when the spread is
above a third of the bound. Each run's result line is appended to
`perfbench/out/spread-<workload>.jsonl`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", type=seeds)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values = {}
    for seed in args.seeds:
        run = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stdout}{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        with log.open("a") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = " <-- above bound/3" if bound and spread > bound / 3 else ""
        print(f"{name:<40} median {med:<14.6g} spread {spread:8.4f} bound {bound}{flag}")


if __name__ == "__main__":
    main()
