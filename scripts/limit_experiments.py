#!/usr/bin/env python3
"""Write convergence-trace CSVs for the limit experiments.

Produces strong-law, ergodic, convexification-rate, and raw-versus-convex
traces under a fixed seed into the output directory.
"""

import argparse
import pathlib
import sys

from ccspace import (
    CyclicTransformation,
    compact_sets_space,
    convexification_rate,
    ergodic_run,
    euclidean_space,
    raw_vs_convex_average_run,
    slln_run,
)
from ccspace.fixtures import convexify_point, ergodic_element, family_points, slln_law


def write_trace(path: pathlib.Path, trace) -> None:
    lines = ["n,distance"] + [f"{n},{d!r}" for n, d in trace.csv_rows()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{path}  final={trace.final_distance:.3e}  verdict={'pass' if trace.verdict else 'fail'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="traces")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n-max", type=int, default=10_000)
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    euclid = euclidean_space(1)
    sets = compact_sets_space(1)

    write_trace(
        out / "slln_euclidean_bernoulli.csv",
        slln_run(euclid, slln_law("euclidean", "bernoulli"), n_max=args.n_max, seed=args.seed),
    )
    write_trace(
        out / "slln_compact_intervals.csv",
        slln_run(sets, slln_law("compact-sets", "interval-pair"), n_max=args.n_max, seed=args.seed),
    )
    write_trace(
        out / "ergodic_rotation_1000_7.csv",
        ergodic_run(
            CyclicTransformation(1000, 7),
            ergodic_element(sets, "compact-sets", 1000),
            n_max=1000,
        ),
    )
    write_trace(
        out / "convexify_rate_two_point.csv",
        convexification_rate(
            sets, convexify_point("compact-sets", "two-point"), list(range(1, 65)), tolerance=0.01
        ),
    )
    write_trace(
        out / "raw_vs_convex_two_point_family.csv",
        raw_vs_convex_average_run(sets, family_points("compact-sets", "two-point-family"), n_max=24),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
