"""Set-up probe: a fresh interpreter imports ccspace.cli and builds one
workload's inputs.

Usage: ``python3 perfbench/probe.py <workload> <seed>``.  As soon as the first
op is ready it prints one JSON line with the durations of the two phases,
then removes the inputs it wrote.  run.py times it from process start.
"""

import time

_start = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[0] = ROOT
sys.path.insert(0, os.path.join(ROOT, "src"))

import ccspace.cli  # noqa: E402,F401  (the import every CLI user pays)

_imported = time.perf_counter()

import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

from perfbench import ops  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        ops.build_plan(workload, seed, workdir)
        ready = time.perf_counter()
        print(json.dumps({"import_s": _imported - _start, "inputs_s": ready - _imported}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
