"""Command-line front end: axiom suites and experiments over named instances.

``ccspace <command> [flags]``: every command dispatches to one library
operation and serializes its report; identical configuration and seed produce
byte-identical output.
Exit codes: 0 all checks pass (or a documented expected failure confirmed),
1 violation found, 2 usage error, a request that exceeds an instance limit,
or an unexpected library exception (``error: internal: <Type>: <message>``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import stat
import sys
import traceback
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import fixtures
from .axioms import AxiomReport, check_axioms, check_cancellation
from .core import convexify
from .embedding import embedding_suite
from .geometry import EnumerationCapError
from .instances import POWER_EXPONENT, SPACE_NAMES, get_space
from .limits import (
    CONVEXIFY_RATE_TOL,
    ERGODIC_TOL,
    MARTINGALE_TOL,
    RAW_VS_CONVEX_TOL,
    SLLN_TOL,
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
    expectation_identity_suite,
    jensen_check,
    martingale_convergence_trace,
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
    r: float = POWER_EXPONENT
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


def _boolean(text: str) -> bool:
    """1/0, true/false or yes/no, in any case."""
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/0, true/false or yes/no, got {text!r}")


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
    "raw_points": ("--raw-points", _boolean, {"action": "store_true"}),
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
            try:
                out[key] = _FLAGS[key][1](value.strip())
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: the tables it reads are fixed.
    Every caller gets the same object, so none may change it."""
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
    for key, (flag, _, extra) in _FLAGS.items():
        if "choices" in extra and getattr(cfg, key) not in extra["choices"]:
            raise UsageError(f"{flag} must be one of {', '.join(map(str, extra['choices']))}")
    if cfg.command in SPACELESS:
        for key in ("space", "dim", "r"):
            if getattr(cfg, key) != _DEFAULTS[key]:
                raise UsageError(f"{cfg.command} takes no {_FLAGS[key][0]}")
    if cfg.n_max is not None and cfg.n_max < 1:  # the suites reject --trials below 1
        raise UsageError("--n-max must be positive")
    if cfg.tolerance is not None and not cfg.tolerance >= 0.0:
        raise UsageError("--tolerance must be a non-negative number")
    if cfg.tolerance == math.inf:  # it would pass every check, an infinite violation included
        raise UsageError("--tolerance must be finite")
    if not math.isfinite(cfg.scale):
        raise UsageError("--scale must be finite")


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
    tol = _or(cfg.tolerance, SLLN_TOL)
    trace = slln_run(space, law, n_max=n_max, seed=cfg.seed, mode=cfg.mode, tolerance=tol)
    return _trace(trace, {"fixture": fixture, "n_max": n_max, "mode": cfg.mode, "tolerance": tol})


def _ergodic(cfg: RunConfig) -> Outcome:
    space = _space_for(cfg)
    tau = CyclicTransformation(cfg.modulus, cfg.step)
    x = fixtures.ergodic_element(space, cfg.space, cfg.modulus, dim=cfg.dim)
    tol = _or(cfg.tolerance, ERGODIC_TOL)
    trace = ergodic_run(tau, x, n_max=_or(cfg.n_max, cfg.modulus), tolerance=tol)
    return _trace(trace, {"modulus": cfg.modulus, "step": cfg.step, "tolerance": tol})


def _martingale(cfg: RunConfig) -> Outcome:
    space = _space_for(cfg)
    if cfg.fixture_file:
        x = fixtures.load_fixture_file(space, cfg.space, cfg.fixture_file, dim=cfg.dim)
    else:
        x = fixtures.martingale_element(space, cfg.space, dim=cfg.dim)
    forward, reverse = martingale_convergence_trace(x, dyadic_filtration(x.sample_space), p=cfg.p)
    tol = _or(cfg.tolerance, MARTINGALE_TOL)
    levels = range(1, len(forward) + 1)
    trace = ConvergenceTrace.build(
        levels, forward, "conditional expectation at the finest level", tol
    )
    # the reverse trace is judged by the same rule: a NaN anywhere fails it
    reverse_trace = ConvergenceTrace.build(levels, reverse, "expectation", tol)
    outcome = _trace(trace, {"p": cfg.p, "atoms": len(x.sample_space), "tolerance": tol})
    outcome.details["reverse_distances"] = [repr(d) for d in reverse_trace.distances]
    outcome.details["reverse_final"] = repr(reverse_trace.final_distance)
    return outcome._replace(passed=trace.verdict and reverse_trace.verdict)


def _jensen(cfg: RunConfig) -> Outcome:
    space = _space_for(cfg)
    if not cfg.fixture_file:
        report = conditional_suite(space, trials=cfg.trials, tol=cfg.tolerance, seed=cfg.seed)
        return _suite(report, {"trials": cfg.trials, "dim": cfg.dim, "tolerance": report.tolerance})
    x = fixtures.load_fixture_file(space, cfg.space, cfg.fixture_file, dim=cfg.dim)
    phi = DistanceTo(space, convexify(space, x.ordered[0]))
    atoms = x.sample_space.atoms
    half = len(atoms) // 2
    halves = FinitePartition.of([atoms[:half], atoms[half:]] if half else [atoms], x.sample_space)
    report = jensen_check(x, phi, conditional=halves, tol=cfg.tolerance)
    return _suite(report, {"fixture_file": cfg.fixture_file, "tolerance": report.tolerance})


def _embed_verify(cfg: RunConfig) -> Outcome:
    report = embedding_suite(get_space("compact-sets", dim=2), trials=cfg.trials, seed=cfg.seed)
    return _suite(report, {"trials": cfg.trials})


def _convexify_rate(cfg: RunConfig) -> Outcome:
    space = _space_for(cfg)
    fixture = cfg.fixture or ("two-point" if cfg.space == "compact-sets" else "unit")
    point = fixtures.convexify_point(cfg.space, fixture, dim=cfg.dim)
    n_max = _or(cfg.n_max, 64)
    tol = _or(cfg.tolerance, CONVEXIFY_RATE_TOL)
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
    report = weight_perturbation_suite(space, trials=cfg.trials, tol=cfg.tolerance, seed=cfg.seed)
    jensen = rational_jensen_suite(space, trials=cfg.trials, tol=cfg.tolerance, seed=cfg.seed)
    report.checks.update(jensen.checks)
    return _suite(report, {"trials": cfg.trials, "dim": cfg.dim, "tolerance": report.tolerance})


def _prop55(cfg: RunConfig) -> Outcome:
    space = _space_for(cfg)
    fixture = cfg.fixture or ("two-point-family" if cfg.space == "compact-sets" else "unit")
    family = fixtures.family_points(cfg.space, fixture, dim=cfg.dim)
    n_max = _or(cfg.n_max, 12)
    tol = _or(cfg.tolerance, RAW_VS_CONVEX_TOL)
    trace = raw_vs_convex_average_run(space, family, n_max=n_max, tolerance=tol)
    return _trace(trace, {"fixture": fixture, "n_max": n_max, "tolerance": tol})


# The battery's space configurations: label -> (space, dim, whether
# check_cancellation runs).  A label has no comma, so "<label>/<check>" is one
# CSV field.
BATTERY = {
    "euclidean-d2": ("euclidean", 2, True),
    "power-d1": ("power", 1, False),
    "compact-sets-d1": ("compact-sets", 1, True),
    "compact-sets-d2": ("compact-sets", 2, True),
    "distributions": ("distributions", 1, False),
}


def _battery(cfg: RunConfig) -> Outcome:
    reports = {}
    for label, (name, dim, cancellation) in BATTERY.items():
        space = get_space(name, dim=dim)
        report = check_axioms(space, trials=cfg.trials, seed=cfg.seed)
        suites = [(expectation_identity_suite, cfg.trials),
                  (conditional_suite, max(1, cfg.trials // 2)),
                  (weight_perturbation_suite, cfg.trials),
                  (rational_jensen_suite, cfg.trials)]
        if cancellation:
            suites.append((check_cancellation, cfg.trials))
        for suite, trials in suites:
            report.checks.update(suite(space, trials=trials, seed=cfg.seed).checks)
        reports[label] = report
    reports["embedding"] = embedding_suite(get_space("compact-sets", dim=2), trials=cfg.trials,
                                           seed=cfg.seed)
    tolerances = {label: report.tolerance for label, report in reports.items()}
    # each check keeps its configuration's tolerance; the report states the loosest
    battery = AxiomReport("battery", cfg.seed, max(tolerances.values()))
    for label, report in reports.items():
        for check in report.checks.values():
            name = f"{label}/{check.name}"
            battery.checks[name] = dataclasses.replace(check, name=name)
    return _suite(battery, {"trials": cfg.trials, "tolerances": tolerances})


# Commands that choose their own spaces: a non-default --space, --dim or --r
# is a usage error, and their reports echo the default space.
SPACELESS = ("battery", "embed-verify", "counterexample")

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
    "battery": (_battery, "every axiom and expectation suite on five space configurations, "
                "and the support-function embedding"),
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


def _write_report(path: str, data: str) -> None:
    """``open(path, "w").write(data)``, but a regular file is replaced atomically,
    keeping its mode (0666 less the umask if new); a FIFO or a device is written
    in place, and symlinks are followed."""
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(data)
        return
    tmp = os.path.join(os.path.dirname(target), f".ccspace-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if mode is not None:
                os.fchmod(handle.fileno(), stat.S_IMODE(mode))
            handle.write(data)
        os.replace(tmp, target)
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
        if cfg.fmt == "json":
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        else:
            text = "\n".join(csv_lines) + "\n"
        if not cfg.out:
            sys.stdout.write(text)
            return code
        try:
            _write_report(cfg.out, text)
        except OSError as exc:
            print(f"error: cannot write {cfg.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        return code
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapError as exc:
        print(f"error: request exceeds the selection enumeration cap: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a library defect, not a violation: keep exit 1 for violations found
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
