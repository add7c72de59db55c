"""Randomized checkers for the combination axioms and their derived laws.

Each check verifies an exact identity or inequality on sampled inputs and
records the worst violation; a check passes when its worst violation stays
within the tolerance.  Failures are report entries with witnesses, never
exceptions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import (
    Point,
    SpaceContract,
    combine,
    midpoint,
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


@dataclass
class CheckResult:
    """Outcome of one named check over all trials."""

    name: str
    trials: int = 0
    worst_violation: float = 0.0
    witness: Optional[str] = None
    tolerance: float = 0.0

    @property
    def passed(self) -> bool:
        return self.worst_violation <= self.tolerance

    def record(self, violation: float, witness: str) -> None:
        """Count a trial; NaN is the worst violation and keeps its first witness."""
        self.trials += 1
        if math.isnan(self.worst_violation):
            return
        if violation > self.worst_violation or math.isnan(violation):
            self.worst_violation = violation
            if not violation <= self.tolerance:
                self.witness = witness


@dataclass
class AxiomReport:
    """Per-check pass/fail with trial counts and worst violations."""

    space: str
    seed: int
    tolerance: float
    checks: dict[str, CheckResult] = field(default_factory=dict)

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


def nan_max(*values, default: Optional[float] = None) -> float:
    """``max`` over one iterable or several arguments, NaN if any value is NaN.

    The builtin keeps a NaN only when it comes first, so folding distances
    with it can turn a NaN into a passing violation.  Finite values give the
    builtin's result, ties included.
    """
    items: Iterable[float] = values[0] if len(values) == 1 else values
    worst = None
    for v in items:
        if math.isnan(v):
            return v
        if worst is None or v > worst:
            worst = v
    if worst is None:
        if default is None:
            raise ValueError("nan_max() of no values needs a default")
        return default
    return worst


def _sample_weights(rng: random.Random, k: int) -> list[float]:
    raw = [rng.uniform(0.1, 1.0) for _ in range(k)]
    total = sum(raw)
    ws = [w / total for w in raw]
    ws[-1] = 1.0 - sum(ws[:-1])
    return ws


def _sample_distinct(space: SpaceContract, rng: random.Random, other: Point, min_gap: float = 1e-3) -> Point:
    for _ in range(32):
        candidate = space.sample(rng)
        if space.distance(candidate, other) > min_gap:
            return candidate
    return candidate


def _fmt(*parts) -> str:
    return " | ".join(repr(p) for p in parts)


def check_axioms(
    space: SpaceContract,
    trials: int = 1000,
    tol: float | None = None,
    seed: int = 0,
    doublings: int = 4,
    max_arity: int = 4,
) -> AxiomReport:
    """Randomized verification of the combination axioms and derived laws.

    Covered per trial: permutation invariance of the terms; nested versus
    flattened combinations; continuity in the weights; the negative-curvature
    inequality; Cauchy behaviour of the equal-weight self-combination
    iterates along doublings plus fixed-point behaviour on convex points;
    linearity, idempotence and non-expansiveness of the convexification
    operator; merging of a repeated convex term; and, on unbiased instances,
    the identity behaviour of equal-weight self-combinations.  Checks needing
    the convexification operator are skipped when the instance supplies no
    exact form.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    tol = space.default_tolerance if tol is None else tol
    report = AxiomReport(space=space.name, seed=seed, tolerance=tol)
    d = space.distance
    has_k = space.convexify_exact is not None

    for t in range(trials):
        rng = trial_rng(seed, t)

        # commutativity: permuting terms leaves the value unchanged
        k = rng.randint(2, max_arity)
        weights = _sample_weights(rng, k)
        points = [space.sample(rng) for _ in range(k)]
        terms = list(zip(weights, points))
        permuted = terms[:]
        rng.shuffle(permuted)
        gap = d(combine(space, terms), combine(space, permuted))
        report.check("commutativity").record(gap, _fmt(terms))

        # flattening: nested two-level combination equals the product-weight form
        m, n_inner = 2, 2
        alphas = _sample_weights(rng, m)
        betas = [_sample_weights(rng, n_inner) for _ in range(m)]
        grid = [[space.sample(rng) for _ in range(n_inner)] for _ in range(m)]
        inner = [combine(space, list(zip(betas[i], grid[i]))) for i in range(m)]
        nested = combine(space, list(zip(alphas, inner)))
        flat = combine(
            space,
            [
                (alphas[i] * betas[i][j], grid[i][j])
                for i in range(m)
                for j in range(n_inner)
            ],
        )
        report.check("flattening").record(d(nested, flat), _fmt(alphas, betas, grid))

        # continuity: the displacement under a weight perturbation must vanish
        # linearly with the perturbation
        u = space.sample(rng)
        v = _sample_distinct(space, rng, u)
        lam = rng.uniform(0.15, 0.85)
        base = combine(space, [(lam, u), (1.0 - lam, v)])
        worst = 0.0
        for step in range(_CONTINUITY_STEPS + 1):
            delta = _CONTINUITY_DELTA0 * 4.0 ** (-step)
            moved = combine(space, [(lam + delta, u), (1.0 - lam - delta, v)])
            worst = nan_max(worst, d(moved, base) - _CONTINUITY_LIPSCHITZ * delta)
        report.check("continuity").record(worst, _fmt(lam, u, v))

        # negative curvature: combination is jointly non-expansive
        lam = rng.uniform(0.05, 0.95)
        u1, u2 = space.sample(rng), space.sample(rng)
        v1, v2 = space.sample(rng), space.sample(rng)
        lhs = d(
            combine(space, [(lam, u1), (1.0 - lam, u2)]),
            combine(space, [(lam, v1), (1.0 - lam, v2)]),
        )
        rhs = lam * d(u1, v1) + (1.0 - lam) * d(u2, v2)
        report.check("negative_curvature").record(lhs - rhs, _fmt(lam, u1, u2, v1, v2))

        # convexification iterates: successive gaps along doublings may not grow
        x = space.sample(rng)
        iterates = [x]
        for _ in range(doublings):
            iterates.append(midpoint(space, iterates[-1], iterates[-1]))
        gaps = [d(a, b) for a, b in zip(iterates, iterates[1:])]
        worst = nan_max(
            (later - earlier for earlier, later in zip(gaps, gaps[1:])), default=0.0
        )
        report.check("convexification_cauchy").record(worst, _fmt(x, gaps))

        # unit weight: a weight-1 term with zero-weight padding is the identity
        u, v = space.sample(rng), space.sample(rng)
        gap = d(combine(space, [(1.0, u), (0.0, v)]), u)
        report.check("unit_weight_identity").record(gap, _fmt(u, v))

        if has_k:
            kx = space.convexify_exact(x)

            # convex points are fixed by equal-weight self-combination
            worst = nan_max(d(self_combination(space, kx, n), kx) for n in (2, 3, 5))
            report.check("convexification_fixed_point").record(worst, _fmt(x, kx))

            # idempotence, both as K(K x) = K x and K([w_j, x]_j) = K x
            gap = d(space.convexify_exact(kx), kx)
            ws = _sample_weights(rng, 3)
            repeated = combine(space, [(w, x) for w in ws])
            gap = nan_max(gap, d(space.convexify_exact(repeated), kx))
            report.check("convexifier_idempotent").record(gap, _fmt(x, ws))

            # linearity: K(combination) equals the combination of images
            gap = d(
                space.convexify_exact(combine(space, terms)),
                combine(space, [(w, space.convexify_exact(p)) for w, p in terms]),
            )
            report.check("convexifier_linear").record(gap, _fmt(terms))

            # non-expansiveness
            ku = space.convexify_exact(u)
            kv = space.convexify_exact(v)
            report.check("convexifier_nonexpansive").record(
                d(ku, kv) - d(u, v), _fmt(u, v)
            )

            # a repeated convex term merges its weights; the outer term stays
            # raw unless the instance cannot mix the two representations
            outer = u
            l1, l2, l3 = _sample_weights(rng, 3)
            try:
                lhs = combine(space, [(l1, outer), (l2, kv), (l3, kv)])
            except TypeError:
                outer = space.convexify_exact(u)
                lhs = combine(space, [(l1, outer), (l2, kv), (l3, kv)])
            gap = d(lhs, combine(space, [(l1, outer), (l2 + l3, kv)]))
            report.check("repeated_convex_merge").record(gap, _fmt(l1, l2, l3, outer, kv))

        if space.unbiased:
            # unbiased instances: self-combinations leave every point fixed
            w = space.sample(rng)
            worst = nan_max(d(self_combination(space, w, n), w) for n in (2, 5))
            ws = _sample_weights(rng, 3)
            worst = nan_max(worst, d(combine(space, [(wt, w) for wt in ws]), w))
            report.check("unbiased_identity").record(worst, _fmt(w, ws))

    return report


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
    if trials < 1:
        raise ValueError("trials must be at least 1")
    tol = space.default_tolerance if tol is None else tol
    report = AxiomReport(space=space.name, seed=seed, tolerance=tol)
    d = space.distance

    def pick(rng: random.Random) -> Point:
        p = space.sample(rng)
        if convex_points:
            if space.convexify_exact is None:
                raise ValueError("convex-point sampling needs an exact convexification")
            return space.convexify_exact(p)
        return p

    for t in range(trials):
        rng = trial_rng(seed, t)
        x = pick(rng)
        y = pick(rng)
        z = pick(rng)
        roll = rng.random()
        if roll < 0.05:
            lam = 0.0
        elif roll < 0.1:
            lam = 1.0
        else:
            lam = rng.uniform(0.0, 1.0)

        lhs = d(
            combine(space, [(lam, x), (1.0 - lam, y)]),
            combine(space, [(lam, x), (1.0 - lam, z)]),
        )
        gap = abs(lhs - (1.0 - lam) * d(y, z))
        report.check("cancellation_equality").record(gap, _fmt(lam, x, y, z))

        lam_in = rng.uniform(0.05, 0.95)
        mixed = combine(space, [(lam_in, x), (1.0 - lam_in, y)])
        gap = nan_max(
            abs(d(mixed, x) - (1.0 - lam_in) * d(x, y)),
            abs(d(mixed, y) - lam_in * d(x, y)),
        )
        report.check("endpoint_ratios").record(gap, _fmt(lam_in, x, y))

        u = combine(space, [(lam_in, x), (1.0 - lam_in, y)])
        v = combine(space, [(lam_in, x), (1.0 - lam_in, z)])
        w = combine(space, [(lam_in, y), (1.0 - lam_in, z)])
        gap = abs(d(u, v) - d(y, w))
        report.check("parallelogram_transfer").record(gap, _fmt(lam_in, x, y, z))

    return report
