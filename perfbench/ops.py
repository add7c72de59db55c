"""Workload plans built from a seed, and the per-op runner with its checks.

An op is one ``ccspace.cli.main(argv)`` call made in-process, or one direct
call of ``expectation_identity_suite``, which no subcommand exposes.  Every
op states what it expects: exit code 0, a verdict, the ``params`` its report
must echo and, for traces, the exact index list.  An op that raises, or whose
report differs from those expectations, is failed with its cause.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

from perfbench import hostspeed

WORKLOADS = ("battery", "growth", "conditioning")
REPORT = "report.json"

# battery: trials per suite, space and pass, split into ops of OP_TRIALS
SUITE_TRIALS = 100
OP_TRIALS = 25
BATTERY_SPACES = (("euclidean", 2), ("power", 1), ("compact-sets", 1),
                  ("compact-sets", 2), ("distributions", 1))
CONDITIONING_SPACES = ("euclidean", "compact-sets", "distributions")
# (log2 atoms, seeded fixture files), sized so that a pass takes a few
# seconds and every op is repeated several times in a run
FIXTURE_FILES = ((7, 2), (8, 2), (9, 1))
ERGODIC_MODULUS = 500
ERGODIC_STEP = 7


@dataclass(frozen=True)
class Op:
    label: str
    items: int  # requested trials, or requested trace points
    argv: tuple[str, ...] = ()  # CLI ops: arguments to ccspace.cli.main, without --out
    suite: Optional[tuple] = None  # direct ops: (space, dim, trials, seed)
    verdict: str = "pass"
    echo: tuple[tuple[str, object], ...] = ()  # params the report must echo
    indices: Optional[tuple[int, ...]] = None  # expected trace indices

    def flag(self, name: str, default=None):
        flag = f"--{name}"
        return self.argv[self.argv.index(flag) + 1] if flag in self.argv else default


class Outcome(NamedTuple):
    seconds: float
    digest: str
    nbytes: int
    failure: Optional[str]


def derive_seed(seed: int, *labels) -> int:
    text = "/".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def cli_op(label, command, items, flags, echo=None, indices=None, verdict="pass") -> Op:
    argv = [command]
    for name, value in flags.items():
        argv += [f"--{name}", str(value)]
    return Op(label, items, argv=tuple(argv), verdict=verdict,
              echo=tuple((echo or {}).items()),
              indices=None if indices is None else tuple(indices))


def battery_plan(seed: int) -> list[Op]:
    """Every suite of scripts/run_all_checks.py on its five space configs."""
    plan = []
    chunks = range(SUITE_TRIALS // OP_TRIALS)
    for space, dim in BATTERY_SPACES:
        tag = f"{space}-d{dim}"
        base = {"space": space, "dim": dim}
        if space == "power":
            base["r"] = 2.0
        for i in chunks:
            def flags(suite, trials):
                return {**base, "trials": trials, "seed": derive_seed(seed, tag, suite, i)}

            echo = {"trials": OP_TRIALS, "dim": dim}
            axiom_echo = {**echo, "r": 2.0} if space == "power" else echo
            plan.append(cli_op(f"check-axioms/{tag}", "check-axioms", OP_TRIALS,
                               flags("axioms", OP_TRIALS), axiom_echo))
            plan.append(Op(f"expectation-identity/{tag}", OP_TRIALS,
                           suite=(space, dim, OP_TRIALS, derive_seed(seed, tag, "identity", i))))
            # run_all_checks.py gives the conditional suite half the trials
            half = OP_TRIALS // 2
            plan.append(cli_op(f"jensen/{tag}", "jensen", half, flags("jensen", half),
                               {"trials": half, "dim": dim}))
            plan.append(cli_op(f"prop52/{tag}", "prop52", OP_TRIALS, flags("prop52", OP_TRIALS), echo))
            if space != "distributions":
                raw = space == "power"
                plan.append(cli_op(
                    f"cancellation/{tag}", "cancellation", OP_TRIALS, flags("cancellation", OP_TRIALS),
                    {**echo, "raw_points": raw},
                    verdict="expected_fail_confirmed" if raw else "pass",
                ))
    for i in chunks:
        plan.append(cli_op("embed-verify", "embed-verify", OP_TRIALS,
                           {"trials": OP_TRIALS, "seed": derive_seed(seed, "embedding", i)},
                           {"trials": OP_TRIALS}))
    plan.append(cli_op("counterexample", "counterexample", 1, {"seed": derive_seed(seed, "counterexample")},
                       {"scale": 1.0}, verdict="expected_fail_confirmed"))
    return plan


def slln_indices(n_max: int) -> range | list[int]:
    every = max(1, n_max // 1000)
    return [n for n in range(1, n_max + 1) if n % every == 0 or n == n_max]


def growth_plan(seed: int) -> list[Op]:
    """Large-operand kernels; each trace sweeps n = 1..n_max within the op."""
    plan = []
    for space, dim, fixture, sizes in (
        ("compact-sets", 1, "two-point", (8, 16, 32, 48, 64, 80)),
        # the covering-radius search is brute force up to 80 sites (n <= 11)
        # and a Voronoi sweep above
        ("compact-sets", 2, "two-point", (4, 6, 8, 14)),
        ("distributions", 1, "unit", (8, 16, 32, 48, 64, 80, 96)),
    ):
        for n in sizes:
            plan.append(cli_op(
                f"convexify-rate/{space}-d{dim}/n{n}", "convexify-rate", n,
                {"space": space, "dim": dim, "fixture": fixture, "n-max": n,
                 "seed": derive_seed(seed, "convexify", space, dim, n)},
                {"fixture": fixture, "n_max": n}, range(1, n + 1),
            ))
    # from about n = 1000 on, the running law exceeds the 512-atom resample cap
    n = 2000
    plan.append(cli_op(
        f"slln/distributions/n{n}", "slln", n,
        {"space": "distributions", "fixture": "bernoulli", "mode": "raw_track", "n-max": n,
         "seed": derive_seed(seed, "slln", n)},
        {"fixture": "bernoulli", "mode": "raw_track", "n_max": n}, slln_indices(n),
    ))
    for n in (8, 16, 32, 48, 64, 80):
        plan.append(cli_op(
            f"prop55/compact-sets/n{n}", "prop55", n,
            {"space": "compact-sets", "fixture": "two-point-family", "n-max": n,
             "seed": derive_seed(seed, "prop55", n)},
            {"fixture": "two-point-family", "n_max": n}, range(1, n + 1),
        ))
    return plan


def _fixture_value(space: str, rng: random.Random) -> str:
    if space == "euclidean":
        return repr(rng.uniform(-5.0, 5.0))
    if space == "compact-sets":
        return " ".join(repr(rng.uniform(-5.0, 5.0)) for _ in range(rng.randint(1, 3)))
    atoms = sorted(rng.sample(range(-500, 500), rng.randint(1, 3)))
    raw = [rng.uniform(0.1, 1.0) for _ in atoms]
    probs = [w / sum(raw) for w in raw]
    probs[-1] = 1.0 - math.fsum(probs[:-1])
    return " ".join(f"{a / 100!r}:{p!r}" for a, p in zip(atoms, probs))


def write_fixture(path: str, space: str, atoms: int, rng: random.Random) -> None:
    """Uniform sample space of ``atoms`` atoms with seeded values."""
    prob = repr(1.0 / atoms)
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(atoms):
            handle.write(f"w{i} ; {prob} ; {_fixture_value(space, rng)}\n")


def conditioning_plan(seed: int, workdir: str) -> list[Op]:
    """Conditional expectation on large seeded sample spaces, plus ergodic averages."""
    plan = []
    for space in CONDITIONING_SPACES:
        for k, files in FIXTURE_FILES:
            for j in range(files):
                atoms = 2 ** k
                name = f"fixture-{space}-{atoms}-{j}.txt"
                write_fixture(os.path.join(workdir, name), space, atoms,
                              random.Random(derive_seed(seed, "fixture", space, k, j)))
                p = 1 + (k + j) % 2
                levels = k + 1
                plan.append(cli_op(
                    f"martingale/{name}", "martingale", atoms * levels,
                    {"space": space, "fixture-file": name, "p": p,
                     "seed": derive_seed(seed, "martingale", space, k, j)},
                    {"p": p}, range(1, levels + 1),
                ))
                plan.append(cli_op(
                    f"jensen/{name}", "jensen", atoms,
                    {"space": space, "fixture-file": name,
                     "seed": derive_seed(seed, "jensen", space, k, j)},
                    {"fixture_file": name},
                ))
        plan.append(cli_op(
            f"ergodic/{space}", "ergodic", ERGODIC_MODULUS,
            {"space": space, "modulus": ERGODIC_MODULUS, "step": ERGODIC_STEP,
             "seed": derive_seed(seed, "ergodic", space)},
            {"modulus": ERGODIC_MODULUS, "step": ERGODIC_STEP}, range(1, ERGODIC_MODULUS + 1),
        ))
    return plan


def build_plan(workload: str, seed: int, workdir: str) -> list[Op]:
    """The ops of one pass; fixture files are written into ``workdir``."""
    if workload == "battery":
        return battery_plan(seed)
    if workload == "growth":
        return growth_plan(seed)
    if workload == "conditioning":
        return conditioning_plan(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# running and checking one op


def check_report(op: Op, code: int, data: bytes) -> Optional[str]:
    """Why the CLI op's report is wrong, or None when it is as expected."""
    if code != 0:
        return f"exit code {code}"
    report = json.loads(data)
    expected = {
        "command": op.argv[0],
        "space": op.flag("space", "euclidean"),
        "seed": int(op.flag("seed", "0")),
        "verdict": op.verdict,
    }
    for key, value in expected.items():
        if report.get(key) != value:
            return f"{key} is {report.get(key)!r}, expected {value!r}"
    params = report.get("params", {})
    for key, value in op.echo:
        if params.get(key) != value:
            return f"params.{key} is {params.get(key)!r}, expected {value!r}"
    if op.indices is not None:
        details = report["details"]
        indices = details.get("indices")
        if indices != list(op.indices):
            got = "missing" if indices is None else f"{len(indices)} points"
            return f"trace has {got}, expected {len(op.indices)}"
        traces = [details["distances"]] + (
            [details["reverse_distances"]] if "reverse_distances" in details else [])
        if any(len(t) != len(op.indices) for t in traces):
            return "trace distances do not align with the indices"
    return None


def run_cli(op: Op, cli_main) -> Outcome:
    if os.path.exists(REPORT):
        os.remove(REPORT)
    start = time.perf_counter()
    try:
        code = cli_main([*op.argv, "--out", REPORT])
    except (Exception, SystemExit) as exc:
        return Outcome(time.perf_counter() - start, "", 0, f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    try:
        with open(REPORT, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        return Outcome(seconds, "", 0, f"no report: {exc}")
    try:
        failure = check_report(op, code, data)
    except (ValueError, KeyError, TypeError) as exc:
        failure = f"unreadable report: {type(exc).__name__}: {exc}"
    return Outcome(seconds, hashlib.sha256(data).hexdigest(), len(data), failure)


def run_suite(op: Op) -> Outcome:
    from ccspace import instances, probability

    space_name, dim, trials, seed = op.suite
    start = time.perf_counter()
    try:
        space = instances.get_space(space_name, dim=dim)
        report = probability.expectation_identity_suite(
            space, trials=trials, seed=seed, tol=space.default_tolerance)
    except Exception as exc:
        return Outcome(time.perf_counter() - start, "", 0, f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    rows = [[name, repr(worst), n, verdict] for name, worst, n, verdict in report.rows()]
    data = json.dumps({"space": report.space, "seed": report.seed,
                       "tolerance": report.tolerance, "rows": rows}).encode()
    failure = None
    if not rows:
        failure = "report has no checks"
    elif report.seed != seed or report.tolerance != space.default_tolerance:
        failure = "report does not echo the seed and tolerance"
    elif any(row[2] != trials for row in rows):
        failure = f"a check ran other than {trials} trials"
    elif ("pass" if report.passed else "fail") != op.verdict:
        failure = f"verdict is {'pass' if report.passed else 'fail'}, expected {op.verdict}"
    return Outcome(seconds, hashlib.sha256(data).hexdigest(), len(data), failure)


def run_op(op: Op, cli_main) -> Outcome:
    """Run one op in the current directory, where its fixture files live."""
    return run_suite(op) if op.suite is not None else run_cli(op, cli_main)


class Totals:
    """Checked op outcomes of a run, against the reference pass's report digests."""

    def __init__(self, plan: list[Op]):
        self.plan = plan
        self.reference: list[str] = []
        self.failures: dict[tuple[str, str], int] = {}
        self.attempted = 0
        self.failed = 0
        self.loops: list[float] = []  # every host loop timing of the run

    def record(self, op: Op, index: int, outcome: Outcome) -> None:
        failure = outcome.failure
        if failure is None and len(self.reference) > index and outcome.digest != self.reference[index]:
            failure = "report bytes differ from the reference run"
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.failures[(op.label, failure)] = self.failures.get((op.label, failure), 0) + 1

    def run_pass(self, cli_main) -> tuple[list[float], int]:
        """One pass over the plan: (nominal seconds per op, CLI report bytes)."""
        seconds = []
        nbytes = 0
        before = hostspeed.loop_seconds()
        for index, op in enumerate(self.plan):
            outcome = run_op(op, cli_main)
            self.record(op, index, outcome)
            if len(self.reference) <= index:
                self.reference.append(outcome.digest)
            after = hostspeed.loop_seconds()
            self.loops.append(after)
            seconds.append(hostspeed.nominal(outcome.seconds, (before + after) / 2))
            before = after
            nbytes += outcome.nbytes if op.suite is None else 0
        return seconds, nbytes

    def digest(self) -> str:
        return hashlib.sha256("".join(self.reference).encode()).hexdigest()
