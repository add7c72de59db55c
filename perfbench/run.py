#!/usr/bin/env python3
"""Run one benchmark workload against the ccspace program in this checkout.

Usage:
    python3 perfbench/run.py --workload {battery,growth,conditioning}
        --seed N --seconds S --trace {0,1}

One process, one client, closed loop: each op starts when the previous one
has returned.  A pass runs every op of the workload's plan once, and passes
repeat until ``--seconds`` have passed (at least two).  Every op is checked
(exit code, verdict, echoed params, trace length), and its report bytes must
equal those of the first pass.  An op's latency is its best time over the
passes, in nominal seconds (see hostspeed.py).  Set-up time is measured in
fresh interpreters.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced (at least three,
starting untraced) and the last line reports the per-layer metrics plus the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[0] = ROOT

from perfbench import hostspeed, ops, stats, tracing  # noqa: E402

SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


def probe_setup(workload: str, seed: int) -> dict[str, float]:
    """Median set-up times over fresh interpreters, in nominal seconds, after
    one discarded warm-up."""
    runs = []
    before = hostspeed.loop_seconds()
    for _ in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - start
            child.stdout.read()
            if child.wait(timeout=PROBE_TIMEOUT_S) != 0 or not line:
                raise RuntimeError(f"set-up probe exited with code {child.returncode}")
        after = hostspeed.loop_seconds()
        loop = (before + after) / 2
        runs.append({key: hostspeed.nominal(value, loop)
                     for key, value in {"setup_s": ready, **json.loads(line)}.items()})
        before = after
    runs = runs[1:]
    return {key: stats.median([r[key] for r in runs]) for key in runs[0]}


def run_passes(workload: str, seed: int, seconds: int, trace: bool, tracer: tracing.Tracer):
    """Run the plan pass after pass until ``seconds`` have passed; returns the
    checked totals, the op seconds of each pass keyed by whether it was
    traced, and the report bytes written per traced pass."""
    import ccspace.cli

    totals = ops.Totals(ops.build_plan(workload, seed, os.getcwd()))
    min_passes = 3 if trace else 2
    samples = {False: [], True: []}
    traced_bytes = 0
    started = time.perf_counter()
    while (sum(map(len, samples.values())) < min_passes
           or time.perf_counter() - started < seconds):
        traced = trace and len(samples[False]) > len(samples[True])
        if traced:
            with tracing.instrument(tracer):
                times, nbytes = totals.run_pass(tracer.wrap(ccspace.cli.main, "cli", "main"))
            traced_bytes += nbytes
        else:
            times, _ = totals.run_pass(ccspace.cli.main)
        samples[traced].append(times)
    return totals, samples, traced_bytes / max(1, len(samples[True]))


def best(runs: list[list[float]]) -> list[float]:
    """Each op's best wall time over the passes."""
    return [min(column) for column in zip(*runs)]


def metrics_of(totals, samples, traced_bytes, setup, tracer, trace: bool):
    """The reported metrics with their units, and notes for the summary."""
    items = sum(op.items for op in totals.plan)
    rate = {kind: items / sum(best(runs)) for kind, runs in samples.items() if runs}
    passes = sum(len(runs) for runs in samples.values())
    notes = [f"{len(totals.plan)} ops per pass, {passes} passes ({len(samples[True])} traced); "
             "an op's latency is its best time over its untraced passes, "
             "in nominal seconds (see hostspeed.py)"]
    if trace:
        values = tracing.layer_values(tracer, len(samples[True]))
        values["cli.bytes_out"] = traced_bytes
        values["setup.import_s"] = setup["import_s"]
        values["setup.inputs_s"] = setup["inputs_s"]
        values["trace.items_per_s"] = rate[True]
        values["trace.untraced_items_per_s"] = rate[False]
        values["trace.overhead_pct"] = 100.0 * (rate[False] - rate[True]) / rate[False]
        metrics = {name: (values.get(name, 0.0), unit) for name, unit in tracing.PER_LAYER}
        notes.append(f"tracing overhead {values['trace.overhead_pct']:.1f}% of items_per_s "
                     f"({rate[True]:.6g} traced vs {rate[False]:.6g} untraced)")
        return metrics, notes

    latencies = best(samples[False])
    tail = stats.tail(latencies)
    values = {
        "items_per_s": rate[False],
        "op_latency_p50_s": stats.median(latencies),
        "op_latency_tail_s": tail.value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup["setup_s"],
    }
    notes += [
        f"op_latency_tail_s is p{tail.percentile:.2f} of {tail.count} ops ({tail.beyond} beyond it)",
        f"setup_s is the median of {SETUP_PROBES} fresh interpreters",
        f"host loop median {stats.median(totals.loops) * 1e6:.0f} us, nominal "
        f"{hostspeed.NOMINAL_LOOP_S * 1e6:.0f} us: wall seconds = nominal seconds x their ratio",
    ]
    return {name: (values[name], unit) for name, unit in stats.END_TO_END}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "ccspace", "cli.py")):
        print(f"error: no ccspace program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setup = probe_setup(args.workload, args.seed)
    tracer = tracing.Tracer()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    cwd = os.getcwd()
    try:
        os.chdir(workdir)  # fixture files and reports are named relative to it
        totals, samples, traced_bytes = run_passes(args.workload, args.seed, args.seconds,
                                                   bool(args.trace), tracer)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, notes = metrics_of(totals, samples, traced_bytes, setup, tracer, bool(args.trace))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:.6g} {unit}")
    print(f"  {'error_rate':52s} {totals.failed / totals.attempted:.6g} "
          f"({totals.failed} failed of {totals.attempted} attempted)")
    for note in notes:
        print(f"  {note}")
    print(f"  report digest {totals.digest()}")
    for (label, cause), count in sorted(totals.failures.items()):
        print(f"  FAILED {label}: {cause} (x{count})")
    print(json.dumps({
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
