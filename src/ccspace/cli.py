"""Command-line front end: axiom suites and experiments over named instances.

``ccspace <command> [flags]``: every command dispatches to one library
operation and serializes its report; identical configuration and seed produce
byte-identical output.
Exit codes: 0 all checks pass (or a documented expected failure confirmed),
1 violation found, 2 usage error or a request that exceeds an instance limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import fixtures
from .axioms import AxiomReport, check_axioms, check_cancellation
from .core import ConvexifyError, convexify
from .embedding import embedding_suite
from .geometry import EnumerationCapError
from .instances import SPACE_NAMES, get_space
from .limits import (
    ConvergenceTrace,
    CyclicTransformation,
    convexification_rate,
    ergodic_run,
    raw_vs_convex_average_run,
    slln_run,
    rational_jensen_suite,
    scaling_counterexample,
    weight_perturbation_suite,
)
from .probability import (
    DistanceTo,
    FinitePartition,
    conditional_suite,
    dyadic_filtration,
    jensen_check,
    martingale_distances,
    martingale_sequence,
)

SEED_ENV_VAR = "CCSPACE_SEED"


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Settings of one run; these field defaults are the only defaults."""

    command: str
    space: str = "euclidean"
    dim: int = 1
    r: float = 2.0
    seed: int = 0
    trials: int = 1000
    n_max: Optional[int] = None  # None: the command's own trace length
    tolerance: Optional[float] = None
    out: Optional[str] = None
    fmt: str = "json"
    fixture: Optional[str] = None
    fixture_file: Optional[str] = None
    mode: str = "convex_track"
    p: int = 1
    modulus: int = 1000
    step: int = 7
    scale: float = 1.0
    raw_points: bool = False


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig) if f.name != "command"}


# RunConfig field -> (flag, type, further argparse keywords).  Config files
# use the field names as keys and the same types.
_FLAGS = {
    "space": ("--space", str, {"choices": SPACE_NAMES}),
    "dim": ("--dim", int, {}),
    "r": ("--r", float, {"help": "power-space exponent (> 1)"}),
    "seed": ("--seed", int, {}),
    "trials": ("--trials", int, {}),
    "n_max": ("--n-max", int, {"help": "trace length (default: per command)"}),
    "tolerance": ("--tolerance", float, {}),
    "out": ("--out", str, {"help": "report path (default: stdout)"}),
    "fmt": ("--format", str, {"choices": ("csv", "json")}),
    "fixture": ("--fixture", str, {"help": "named fixture"}),
    "fixture_file": ("--fixture-file", str, {}),
    "mode": ("--mode", str, {"choices": ("convex_track", "raw_track")}),
    "p": ("--p", int, {"choices": (1, 2)}),
    "modulus": ("--modulus", int, {}),
    "step": ("--step", int, {}),
    "scale": ("--scale", float, {}),
    "raw_points": ("--raw-points", lambda v: v.lower() in ("1", "true", "yes"),
                   {"action": "store_true"}),
}


def load_config_file(path: str) -> dict:
    """``key = value`` lines mirroring the flag names; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _FLAGS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _FLAGS[key][1](value.strip())
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccspace",
        description=(
            "Axiom suites and limit experiments over convex combination space "
            "instances: euclidean, power, compact-sets, distributions."
        ),
        epilog=(
            f"The environment variable {SEED_ENV_VAR} overrides the default seed. "
            "Point serialization: euclidean/power points are comma-separated "
            "coordinates ('1.5,2'); compact sets are whitespace-separated "
            "coordinate tuples ('0 1' or '0,0 1,1'), with a 'hull:' prefix for "
            "convex polytopes; distributions are atom:prob pairs ('0:0.5 1:0.5'). "
            "Fixture files hold one 'label ; prob ; value' line per atom."
        ),
    )
    parser.add_argument(
        "command", choices=COMMANDS, metavar="command",
        help="; ".join(f"{name}: {ref}" for name, (_, ref) in COMMANDS.items()),
    )
    parser.add_argument("--config", help="key = value config file; flags win")
    for dest, (flag, convert, extra) in _FLAGS.items():
        kwargs = extra if "action" in extra else {"type": convert, **extra}
        parser.add_argument(flag, dest=dest, default=None, **kwargs)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig defaults, overridden by CCSPACE_SEED, the config file and flags."""
    values = {}
    if SEED_ENV_VAR in os.environ:
        values["seed"] = int(os.environ[SEED_ENV_VAR])
    if args.config:
        values.update(load_config_file(args.config))
    values.update((key, getattr(args, key)) for key in _FLAGS if getattr(args, key) is not None)
    cfg = RunConfig(command=args.command, **values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.space not in SPACE_NAMES:
        raise UsageError(f"unknown space {cfg.space!r}")
    if cfg.space == "power" and not cfg.r > 1.0:
        raise UsageError("power space needs --r greater than 1")
    if cfg.space != "power" and cfg.r != _DEFAULTS["r"]:
        raise UsageError("--r applies to the power space only")
    if cfg.space == "compact-sets" and cfg.dim not in (1, 2):
        raise UsageError("compact-sets supports --dim 1 or 2")
    if cfg.space == "euclidean" and cfg.dim not in (1, 2, 3):
        raise UsageError("euclidean supports --dim 1, 2, or 3")
    if cfg.trials < 1 or (cfg.n_max is not None and cfg.n_max < 1):
        raise UsageError("--trials and --n-max must be positive")


def _space_for(cfg: RunConfig):
    return get_space(cfg.space, dim=cfg.dim, r=cfg.r)


def _or(value, default):
    """``value``, or the command's ``default`` when the setting is unset."""
    return default if value is None else value


class Outcome(NamedTuple):
    """What one command found, before it becomes a verdict and exit code."""

    passed: bool
    details: dict
    csv: list[str]
    params: dict
    expect_fail: bool = False  # the checks run on a documented counterexample


def _suite(report: AxiomReport, params: dict, expect_fail: bool = False) -> Outcome:
    details = {
        "tolerance": report.tolerance,
        "checks": {
            name: {
                "worst_violation": repr(c.worst_violation),
                "trials": c.trials,
                "verdict": "pass" if c.passed else "fail",
                "witness": c.witness,
            }
            for name, c in sorted(report.checks.items())
        },
    }
    csv = ["check,worst_violation,trials,verdict"] + [
        f"{name},{worst!r},{trials},{verdict}" for name, worst, trials, verdict in report.rows()
    ]
    return Outcome(report.passed, details, csv, params, expect_fail)


def _trace(trace: ConvergenceTrace, params: dict) -> Outcome:
    csv = ["n,distance"] + [f"{n},{d!r}" for n, d in trace.csv_rows()]
    return Outcome(trace.verdict, trace.to_json_dict(), csv, params)


def _check_axioms(cfg: RunConfig) -> Outcome:
    report = check_axioms(_space_for(cfg), trials=cfg.trials, tol=cfg.tolerance, seed=cfg.seed)
    params = {"trials": cfg.trials, "dim": cfg.dim, "tolerance": report.tolerance}
    if cfg.space == "power":
        params["r"] = cfg.r
    return _suite(report, params)


def _cancellation(cfg: RunConfig) -> Outcome:
    # raw points are the documented counterexample; finding the discrepancy
    # is the expected outcome
    raw = cfg.raw_points or cfg.space == "power"
    report = check_cancellation(
        _space_for(cfg), trials=cfg.trials, tol=cfg.tolerance, seed=cfg.seed,
        convex_points=not raw,
    )
    params = {"trials": cfg.trials, "dim": cfg.dim, "raw_points": raw}
    return _suite(report, params, expect_fail=raw)


def _slln(cfg: RunConfig) -> Outcome:
    space = _space_for(cfg)
    fixture = cfg.fixture or ("interval-pair" if cfg.space == "compact-sets" else "bernoulli")
    law = fixtures.slln_law(cfg.space, fixture, dim=cfg.dim)
    n_max = _or(cfg.n_max, 1000)
    tol = _or(cfg.tolerance, 0.05)
    trace = slln_run(space, law, n_max=n_max, seed=cfg.seed, mode=cfg.mode, tolerance=tol)
    return _trace(trace, {"fixture": fixture, "n_max": n_max, "mode": cfg.mode, "tolerance": tol})


def _ergodic(cfg: RunConfig) -> Outcome:
    space = _space_for(cfg)
    tau = CyclicTransformation(cfg.modulus, cfg.step)
    x = fixtures.ergodic_element(space, cfg.space, cfg.modulus, dim=cfg.dim)
    tol = _or(cfg.tolerance, 1e-12)
    trace = ergodic_run(tau, x, n_max=_or(cfg.n_max, cfg.modulus), tolerance=tol)
    return _trace(trace, {"modulus": cfg.modulus, "step": cfg.step, "tolerance": tol})


def _martingale(cfg: RunConfig) -> Outcome:
    space = _space_for(cfg)
    if cfg.fixture_file:
        x = fixtures.load_fixture_file(space, cfg.space, cfg.fixture_file, dim=cfg.dim)
    else:
        x = fixtures.martingale_element(space, cfg.space, n_atoms=16, dim=cfg.dim)
    seq = martingale_sequence(x, dyadic_filtration(x.sample_space))
    forward = martingale_distances(seq, p=cfg.p, direction="forward")
    reverse = martingale_distances(seq, p=cfg.p, direction="reverse")
    tol = _or(cfg.tolerance, 1e-12)
    trace = ConvergenceTrace.build(
        range(1, len(forward) + 1), forward, "conditional expectation at the finest level", tol
    )
    outcome = _trace(trace, {"p": cfg.p, "atoms": len(x.sample_space), "tolerance": tol})
    outcome.details["reverse_distances"] = [repr(d) for d in reverse]
    outcome.details["reverse_final"] = repr(reverse[-1])
    return outcome._replace(passed=trace.verdict and reverse[-1] <= tol)


def _jensen(cfg: RunConfig) -> Outcome:
    space = _space_for(cfg)
    tol = _or(cfg.tolerance, space.default_tolerance)
    if not cfg.fixture_file:
        report = conditional_suite(space, trials=cfg.trials, tol=tol, seed=cfg.seed)
        return _suite(report, {"trials": cfg.trials, "dim": cfg.dim, "tolerance": tol})
    x = fixtures.load_fixture_file(space, cfg.space, cfg.fixture_file, dim=cfg.dim)
    phi = DistanceTo(space, convexify(space, next(iter(x.values.values()))))
    report = jensen_check(x, phi, conditional=None, tol=tol)
    atoms = x.sample_space.atoms
    half = len(atoms) // 2
    halves = FinitePartition.of([atoms[:half], atoms[half:]] if half else [atoms], x.sample_space)
    report.checks.update(jensen_check(x, phi, conditional=halves, tol=tol).checks)
    return _suite(report, {"fixture_file": cfg.fixture_file, "tolerance": tol})


def _embed_verify(cfg: RunConfig) -> Outcome:
    return _suite(embedding_suite(trials=cfg.trials, seed=cfg.seed), {"trials": cfg.trials})


def _convexify_rate(cfg: RunConfig) -> Outcome:
    space = _space_for(cfg)
    fixture = cfg.fixture or ("two-point" if cfg.space == "compact-sets" else "unit")
    point = fixtures.convexify_point(cfg.space, fixture, dim=cfg.dim)
    n_max = _or(cfg.n_max, 64)
    tol = _or(cfg.tolerance, 1.0)
    trace = convexification_rate(space, point, list(range(1, n_max + 1)), tolerance=tol)
    return _trace(trace, {"fixture": fixture, "n_max": n_max, "tolerance": tol})


def _counterexample(cfg: RunConfig) -> Outcome:
    result = scaling_counterexample(scale=cfg.scale)
    details = {
        "lhs": repr(result.lhs),
        "rhs": repr(result.rhs),
        "inequality": "raw-point weight-perturbation bound",
        "verdict": result.verdict,
    }
    csv = ["lhs,rhs,verdict", f"{result.lhs!r},{result.rhs!r},{result.verdict}"]
    return Outcome(result.verdict != "fails", details, csv, {"scale": cfg.scale}, expect_fail=True)


def _prop52(cfg: RunConfig) -> Outcome:
    space = _space_for(cfg)
    tol = _or(cfg.tolerance, space.default_tolerance)
    report = weight_perturbation_suite(space, trials=cfg.trials, tol=tol, seed=cfg.seed)
    jensen = rational_jensen_suite(space, trials=cfg.trials, tol=tol, seed=cfg.seed)
    report.checks.update(jensen.checks)
    return _suite(report, {"trials": cfg.trials, "dim": cfg.dim, "tolerance": tol})


def _prop55(cfg: RunConfig) -> Outcome:
    space = _space_for(cfg)
    fixture = cfg.fixture or ("two-point-family" if cfg.space == "compact-sets" else "unit")
    family = fixtures.family_points(cfg.space, fixture, dim=cfg.dim)
    n_max = _or(cfg.n_max, 12)
    tol = _or(cfg.tolerance, 0.5)
    trace = raw_vs_convex_average_run(space, family, n_max=n_max, tolerance=tol)
    return _trace(trace, {"fixture": fixture, "n_max": n_max, "tolerance": tol})


# name -> (handler, short statement of the result it exercises, reported as
# paper_ref)
COMMANDS = {
    "check-axioms": (_check_axioms, "combination axioms and convexification-operator laws"),
    "cancellation": (_cancellation, "metric cancellation law on convex points"),
    "slln": (_slln, "strong law of large numbers for equal-weight combinations"),
    "ergodic": (_ergodic, "pointwise ergodic averages under a measure-preserving rotation"),
    "martingale": (_martingale, "martingale convergence of conditional expectations "
                   "along a filtration"),
    "jensen": (_jensen, "Jensen inequality for expectation and conditional expectation"),
    "embed-verify": (_embed_verify, "isometric affine embedding of convex compacta "
                     "via support functions"),
    "convexify-rate": (_convexify_rate, "convergence of equal-weight self-combinations "
                       "to the convexification"),
    "counterexample": (_counterexample, "failure of the weight-perturbation bound "
                       "without convexification"),
    "prop52": (_prop52, "weight-perturbation bound for combinations of convexified points"),
    "prop55": (_prop55, "asymptotic equivalence of raw and convexified equal-weight "
               "averages"),
}


def run(cfg: RunConfig) -> tuple[int, dict, list[str]]:
    """Execute one command; returns (exit code, json payload, csv lines)."""
    if cfg.command not in COMMANDS:
        raise UsageError(f"unknown command {cfg.command!r}")
    handler, paper_ref = COMMANDS[cfg.command]
    outcome = handler(cfg)
    ok = outcome.passed != outcome.expect_fail
    if outcome.expect_fail:
        verdict = "expected_fail_confirmed" if ok else "expected_fail_missing"
    else:
        verdict = "pass" if ok else "fail"
    payload = {
        "command": cfg.command,
        "space": cfg.space,
        "params": outcome.params,
        "seed": cfg.seed,
        "verdict": verdict,
        "details": outcome.details,
        "paper_ref": paper_ref,
    }
    return (0 if ok else 1), payload, outcome.csv


def _write_atomic(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ccspace-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        code, payload, csv_lines = run(cfg)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EnumerationCapError, ConvexifyError) as exc:
        limit = ("selection enumeration cap" if isinstance(exc, EnumerationCapError)
                 else "convexification doubling budget")
        print(f"error: request exceeds the {limit}: {exc}", file=sys.stderr)
        return 2
    if cfg.fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(csv_lines) + "\n"
    if cfg.out:
        _write_atomic(cfg.out, text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
