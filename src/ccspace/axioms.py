"""Randomized checkers for the combination axioms and their derived laws.

A seeded suite is a draw and a table of ``Check`` rows, run by ``run_trials``:
per trial, ``draw`` makes the trial's random choices and shared values (its
case), and each row's ``measure`` returns the case's violation of an exact
identity or inequality, then its witness parts.  A check passes when its
worst violation stays within its tolerance.  Failures are report entries
with witnesses, never exceptions."""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Optional

from .core import (
    SpaceContract,
    combine,
    midpoint,
    nan_max,
    self_combination,
    trial_rng,
)

# Continuity is checked along a geometrically shrinking weight perturbation
# delta: the displacement must stay below _CONTINUITY_LIPSCHITZ * delta.  The
# constant covers every built-in instance because samplers draw from a bounded
# region, so a genuine discontinuity shows up once delta is small.
_CONTINUITY_LIPSCHITZ = 100.0
_CONTINUITY_STEPS = 8
_CONTINUITY_DELTA0 = 1e-3
_MIN_GAP = 1e-3  # continuity redraws an endpoint this close to the other
_DOUBLINGS = 4  # equal-weight doublings per convexification_cauchy trial
_MAX_ARITY = 4  # most terms in a commutativity trial


@dataclass
class CheckResult:
    """Outcome of one named check over all trials."""

    name: str
    trials: int = 0
    worst_violation: float = 0.0
    witness: Optional[str] = None
    tolerance: float = 0.0
    case: Any = field(default=None, repr=False, compare=False)
    trial: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.worst_violation <= self.tolerance

    def record(self, violation: float, *parts, case: Any = None, trial: Optional[int] = None) -> None:
        """Count a trial; NaN is the worst violation and keeps its first witness.

        The witness is the reprs of ``parts`` joined by `` | ``, formatted only
        when this trial becomes the failing witness.  ``case`` and ``trial``
        are kept whenever the trial becomes the worst one.
        """
        self.trials += 1
        if math.isnan(self.worst_violation):
            return
        if violation > self.worst_violation or math.isnan(violation):
            self.worst_violation = violation
            self.case, self.trial = case, trial
            if not violation <= self.tolerance:
                self.witness = " | ".join(map(repr, parts))


@dataclass
class AxiomReport:
    """Per-check pass/fail with trial counts and worst violations."""

    space: str
    seed: int
    tolerance: float
    checks: dict[str, CheckResult] = field(default_factory=dict)

    @classmethod
    def for_space(cls, space: SpaceContract, tol: float | None, seed: int = 0) -> "AxiomReport":
        """An empty report; ``tol=None`` means the space's default tolerance."""
        return cls(space.name, seed, space.default_tolerance if tol is None else tol)

    def check(self, name: str) -> CheckResult:
        if name not in self.checks:
            self.checks[name] = CheckResult(name=name, tolerance=self.tolerance)
        return self.checks[name]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    @property
    def worst_violation(self) -> float:
        return nan_max((c.worst_violation for c in self.checks.values()), default=0.0)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks.values() if not c.passed]

    def rows(self) -> list[tuple[str, float, int, str]]:
        return [
            (c.name, c.worst_violation, c.trials, "pass" if c.passed else "fail")
            for c in sorted(self.checks.values(), key=lambda c: c.name)
        ]


def _sample_weights(rng: random.Random, k: int) -> list[float]:
    raw = [rng.uniform(0.1, 1.0) for _ in range(k)]
    total = sum(raw)
    ws = [w / total for w in raw]
    ws[-1] = 1.0 - sum(ws[:-1])
    return ws


class Check(NamedTuple):
    """A named check: ``measure(space, case)`` returns the violation on one
    drawn case, then the witness parts; ``tolerance`` overrides the report's."""

    name: str
    measure: Callable[[SpaceContract, Any], tuple]
    tolerance: Optional[float] = None


def run_trials(space: SpaceContract, draw: Callable, table: tuple[Check, ...],
               trials: int, tol: float | None, seed: int) -> AxiomReport:
    """Every check of ``table`` on each trial's case, drawn from the trial's own stream."""
    if trials < 1:  # a suite with no trials would pass vacuously
        raise ValueError("trials must be at least 1")
    report = AxiomReport.for_space(space, tol, seed)
    for c in table:
        tolerance = report.tolerance if c.tolerance is None else c.tolerance
        report.checks[c.name] = CheckResult(c.name, tolerance=tolerance)
    for t in range(trials):
        case = draw(space, trial_rng(seed, t), t)
        for c in table:
            report.checks[c.name].record(*c.measure(space, case), case=case, trial=t)
    return report


def _draw_axioms(space: SpaceContract, rng: random.Random, trial: int) -> SimpleNamespace:
    """The trial's random choices, in the stream order every report depends on."""
    c = SimpleNamespace()
    weights = _sample_weights(rng, rng.randint(2, _MAX_ARITY))
    c.terms = [(w, space.sample(rng)) for w in weights]
    c.permuted = c.terms[:]
    rng.shuffle(c.permuted)
    c.combined = combine(space, c.terms)
    alphas, betas = _sample_weights(rng, 2), [_sample_weights(rng, 2) for _ in range(2)]
    c.flattening = alphas, betas, [[space.sample(rng) for _ in range(2)] for _ in range(2)]
    u = space.sample(rng)
    for _ in range(32):  # redraw an endpoint within _MIN_GAP of the other
        v = space.sample(rng)
        if space.distance(v, u) > _MIN_GAP:
            break
    c.continuity = rng.uniform(0.15, 0.85), u, v
    c.curvature = rng.uniform(0.05, 0.95), *(space.sample(rng) for _ in range(4))
    c.x, c.u, c.v = (space.sample(rng) for _ in range(3))
    c.kx, c.ku, c.kv = map(space.convexify_exact, (c.x, c.u, c.v))
    c.ws, c.merge = _sample_weights(rng, 3), _sample_weights(rng, 3)
    if space.unbiased:
        c.w, c.w_weights = space.sample(rng), _sample_weights(rng, 3)
    return c


def _continuity(space, c):
    # the displacement under a weight perturbation must vanish linearly in it
    lam, u, v = c.continuity
    base = combine(space, [(lam, u), (1.0 - lam, v)])
    worst = 0.0
    for step in range(_CONTINUITY_STEPS + 1):
        delta = _CONTINUITY_DELTA0 * 4.0 ** (-step)
        moved = combine(space, [(lam + delta, u), (1.0 - lam - delta, v)])
        worst = nan_max(worst, space.distance(moved, base) - _CONTINUITY_LIPSCHITZ * delta)
    return worst, lam, u, v


def _negative_curvature(space, c):
    # combination is jointly non-expansive
    lam, u1, u2, v1, v2 = c.curvature
    d = space.distance
    lhs = d(combine(space, [(lam, u1), (1.0 - lam, u2)]), combine(space, [(lam, v1), (1.0 - lam, v2)]))
    return lhs - (lam * d(u1, v1) + (1.0 - lam) * d(u2, v2)), *c.curvature


def _convexification_cauchy(space, c):
    # successive gaps along equal-weight doublings may not grow
    iterates = [c.x]
    for _ in range(_DOUBLINGS):
        iterates.append(midpoint(space, iterates[-1], iterates[-1]))
    gaps = [space.distance(a, b) for a, b in zip(iterates, iterates[1:])]
    worst = nan_max((later - earlier for earlier, later in zip(gaps, gaps[1:])), default=0.0)
    return worst, c.x, gaps


def _repeated_convex_merge(space, c):
    # a repeated convex term merges its weights; the outer term stays raw
    # unless the instance cannot mix the two representations
    l1, l2, l3 = c.merge
    outer, kv = c.u, c.kv
    try:
        lhs = combine(space, [(l1, outer), (l2, kv), (l3, kv)])
    except TypeError:
        outer = c.ku
        lhs = combine(space, [(l1, outer), (l2, kv), (l3, kv)])
    return space.distance(lhs, combine(space, [(l1, outer), (l2 + l3, kv)])), l1, l2, l3, outer, kv


AXIOM_CHECKS = (
    # permuting terms leaves the value unchanged
    Check("commutativity", lambda space, c: (
        space.distance(c.combined, combine(space, c.permuted)), c.terms)),
    # a nested two-level combination equals the product-weight form
    Check("flattening", lambda space, c: (space.distance(
        combine(space, [(a, combine(space, list(zip(b, row)))) for a, b, row in zip(*c.flattening)]),
        combine(space, [(a * w, p) for a, b, row in zip(*c.flattening) for w, p in zip(b, row)]),
    ), *c.flattening)),
    Check("continuity", _continuity),
    Check("negative_curvature", _negative_curvature),
    Check("convexification_cauchy", _convexification_cauchy),
    # a weight-1 term with zero-weight padding is the identity
    Check("unit_weight_identity", lambda space, c: (
        space.distance(combine(space, [(1.0, c.u), (0.0, c.v)]), c.u), c.u, c.v)),
    # convex points are fixed by equal-weight self-combination
    Check("convexification_fixed_point", lambda space, c: (nan_max(
        space.distance(self_combination(space, c.kx, n), c.kx) for n in (2, 3, 5)), c.x, c.kx)),
    # idempotence, both as K(K x) = K x and K([w_j, x]_j) = K x
    Check("convexifier_idempotent", lambda space, c: (nan_max(
        space.distance(space.convexify_exact(c.kx), c.kx),
        space.distance(space.convexify_exact(combine(space, [(w, c.x) for w in c.ws])), c.kx),
    ), c.x, c.ws)),
    # K(combination) equals the combination of images
    Check("convexifier_linear", lambda space, c: (space.distance(
        space.convexify_exact(c.combined),
        combine(space, [(w, space.convexify_exact(p)) for w, p in c.terms])), c.terms)),
    Check("convexifier_nonexpansive", lambda space, c: (
        space.distance(c.ku, c.kv) - space.distance(c.u, c.v), c.u, c.v)),
    Check("repeated_convex_merge", _repeated_convex_merge),
)
# unbiased instances: self-combinations leave every point fixed
UNBIASED_IDENTITY = Check("unbiased_identity", lambda space, c: (nan_max(
    *(space.distance(self_combination(space, c.w, n), c.w) for n in (2, 5)),
    space.distance(combine(space, [(wt, c.w) for wt in c.w_weights]), c.w),
), c.w, c.w_weights))


def check_axioms(
    space: SpaceContract, trials: int = 1000, tol: float | None = None, seed: int = 0
) -> AxiomReport:
    """Randomized verification of the combination axioms and derived laws.

    Covered per trial: permutation invariance of the terms; nested versus
    flattened combinations; continuity in the weights; the negative-curvature
    inequality; Cauchy behaviour of the equal-weight self-combination
    iterates along doublings plus fixed-point behaviour on convex points;
    linearity, idempotence and non-expansiveness of the convexification
    operator; merging of a repeated convex term; and, on unbiased instances,
    the identity behaviour of equal-weight self-combinations.
    """
    table = AXIOM_CHECKS + (UNBIASED_IDENTITY,) if space.unbiased else AXIOM_CHECKS
    return run_trials(space, _draw_axioms, table, trials, tol, seed)


def _draw_cancellation(space, rng, trial, convex_points):
    points = [space.sample(rng) for _ in range(3)]
    x, y, z = map(space.convexify_exact, points) if convex_points else points
    roll = rng.random()
    lam = 0.0 if roll < 0.05 else 1.0 if roll < 0.1 else rng.uniform(0.0, 1.0)
    lam_in = rng.uniform(0.05, 0.95)
    u = combine(space, [(lam_in, x), (1.0 - lam_in, y)])
    return SimpleNamespace(x=x, y=y, z=z, lam=lam, lam_in=lam_in, u=u)


def _endpoint_ratios(space, c):
    dxy = space.distance(c.x, c.y)
    gap = nan_max(abs(space.distance(c.u, c.x) - (1.0 - c.lam_in) * dxy),
                  abs(space.distance(c.u, c.y) - c.lam_in * dxy))
    return gap, c.lam_in, c.x, c.y


CANCELLATION_CHECKS = (
    Check("cancellation_equality", lambda space, c: (abs(space.distance(
        combine(space, [(c.lam, c.x), (1.0 - c.lam, c.y)]),
        combine(space, [(c.lam, c.x), (1.0 - c.lam, c.z)]),
    ) - (1.0 - c.lam) * space.distance(c.y, c.z)), c.lam, c.x, c.y, c.z)),
    Check("endpoint_ratios", _endpoint_ratios),
    Check("parallelogram_transfer", lambda space, c: (abs(
        space.distance(c.u, combine(space, [(c.lam_in, c.x), (1.0 - c.lam_in, c.z)]))
        - space.distance(c.y, combine(space, [(c.lam_in, c.y), (1.0 - c.lam_in, c.z)]))
    ), c.lam_in, c.x, c.y, c.z)),
)


def check_cancellation(
    space: SpaceContract,
    trials: int = 1000,
    tol: float | None = None,
    seed: int = 0,
    convex_points: bool = True,
) -> AxiomReport:
    """Cancellation law and its companions on sampled triples.

    With ``convex_points`` (the default), samples are convexified first and
    the exact equalities are verified: the cancellation equality
    d([lam,x;1-lam,y],[lam,x;1-lam,z]) = (1-lam) d(y,z), the endpoint ratios
    d([lam,u;1-lam,v],u) = (1-lam) d(u,v) and d(.,v) = lam d(u,v), and the
    parallelogram transfer d(u',v') = d(y,w').  With raw (non-convexified)
    samples the equalities are generally false; the report then documents the
    violation rather than raising.
    """
    draw = functools.partial(_draw_cancellation, convex_points=convex_points)
    return run_trials(space, draw, CANCELLATION_CHECKS, trials, tol, seed)
