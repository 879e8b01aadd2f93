#!/usr/bin/env python3
"""Build and run the collector benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet_oue --seed 1 --seconds 10 --trace 0

Builds the `ldp-perfbench` package (its own Cargo workspace, with path
dependencies on the repository's crates) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with the same
arguments. The binary's last output line is the JSON result. A traced run
(`--trace 1`) also writes its spans to `perfbench/out/`.

Exits 2 without a result when the repository's crates are not beside
the benchmark, or when the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet_oue", "window_olhc", "rollup_cms")
# The binary is given this long to finish one run before it is stopped.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    for needed in ("Cargo.toml", "crates/workloads/Cargo.toml", "crates/core/Cargo.toml"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing: run from a full checkout of the repository")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    cmd = [str(target / "release" / "ldp-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(HERE / "out" / f"spans-{args.workload}.jsonl")]
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
