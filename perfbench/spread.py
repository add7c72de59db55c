#!/usr/bin/env python3
"""Run a workload once per seed and report each metric's median and spread.

Usage:
    python3 perfbench/spread.py --workload growth --seeds 1 2 3 4 5 [--trace 0]

The spread is the distance between the first and third quartiles of the
per-seed values, as a share of their median.  For end-to-end metrics it is
compared with the bound in BENCHMARK.json; a benchmark is steady when every
spread, except that of setup_s, stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[0] = ROOT

from perfbench import stats  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=True, capture_output=True, text=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(out, file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{name}={series[-1]:.4g}" for name, series in values.items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']} {shown}", flush=True)

    steady = True
    for name, series in values.items():
        median = stats.median(series)
        spread = stats.relative_spread(series) if len(series) > 1 and median else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s":
            ok = spread < bound / 3
            steady &= ok
            mark = "ok" if ok else "WIDE"
        shown = "" if bound is None else f" bound {bound}"
        print(f"{name:52s} median {median:.6g}  spread {spread:.3f}{shown} {mark}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
