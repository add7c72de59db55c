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
from typing import Iterator, Optional

from .core import (
    Point,
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

    @property
    def passed(self) -> bool:
        return self.worst_violation <= self.tolerance

    def record(self, violation: float, *parts) -> None:
        """Count a trial; NaN is the worst violation and keeps its first witness.

        The witness is the reprs of ``parts`` joined by `` | ``, formatted only
        when this trial becomes the failing witness.
        """
        self.trials += 1
        if math.isnan(self.worst_violation):
            return
        if violation > self.worst_violation or math.isnan(violation):
            self.worst_violation = violation
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


def _sample_distinct(space: SpaceContract, rng: random.Random, other: Point) -> Point:
    for _ in range(32):
        candidate = space.sample(rng)
        if space.distance(candidate, other) > _MIN_GAP:
            return candidate
    return candidate


def seeded_trials(trials: int, seed: int) -> Iterator[tuple[int, random.Random]]:
    """``(t, rng)`` for each trial, each with its own stream."""
    if trials < 1:  # a suite with no trials would pass vacuously
        raise ValueError("trials must be at least 1")
    return ((t, trial_rng(seed, t)) for t in range(trials))


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
    report = AxiomReport.for_space(space, tol, seed)
    d = space.distance

    for _, rng in seeded_trials(trials, seed):
        # commutativity: permuting terms leaves the value unchanged
        k = rng.randint(2, _MAX_ARITY)
        weights = _sample_weights(rng, k)
        points = [space.sample(rng) for _ in range(k)]
        terms = list(zip(weights, points))
        permuted = terms[:]
        rng.shuffle(permuted)
        combined = combine(space, terms)
        gap = d(combined, combine(space, permuted))
        report.check("commutativity").record(gap, terms)

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
        report.check("flattening").record(d(nested, flat), alphas, betas, grid)

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
        report.check("continuity").record(worst, lam, u, v)

        # negative curvature: combination is jointly non-expansive
        lam = rng.uniform(0.05, 0.95)
        u1, u2 = space.sample(rng), space.sample(rng)
        v1, v2 = space.sample(rng), space.sample(rng)
        lhs = d(
            combine(space, [(lam, u1), (1.0 - lam, u2)]),
            combine(space, [(lam, v1), (1.0 - lam, v2)]),
        )
        rhs = lam * d(u1, v1) + (1.0 - lam) * d(u2, v2)
        report.check("negative_curvature").record(lhs - rhs, lam, u1, u2, v1, v2)

        # convexification iterates: successive gaps along doublings may not grow
        x = space.sample(rng)
        iterates = [x]
        for _ in range(_DOUBLINGS):
            iterates.append(midpoint(space, iterates[-1], iterates[-1]))
        gaps = [d(a, b) for a, b in zip(iterates, iterates[1:])]
        worst = nan_max(
            (later - earlier for earlier, later in zip(gaps, gaps[1:])), default=0.0
        )
        report.check("convexification_cauchy").record(worst, x, gaps)

        # unit weight: a weight-1 term with zero-weight padding is the identity
        u, v = space.sample(rng), space.sample(rng)
        gap = d(combine(space, [(1.0, u), (0.0, v)]), u)
        report.check("unit_weight_identity").record(gap, u, v)

        kx = space.convexify_exact(x)

        # convex points are fixed by equal-weight self-combination
        worst = nan_max(d(self_combination(space, kx, n), kx) for n in (2, 3, 5))
        report.check("convexification_fixed_point").record(worst, x, kx)

        # idempotence, both as K(K x) = K x and K([w_j, x]_j) = K x
        gap = d(space.convexify_exact(kx), kx)
        ws = _sample_weights(rng, 3)
        repeated = combine(space, [(w, x) for w in ws])
        gap = nan_max(gap, d(space.convexify_exact(repeated), kx))
        report.check("convexifier_idempotent").record(gap, x, ws)

        # linearity: K(combination) equals the combination of images
        gap = d(
            space.convexify_exact(combined),
            combine(space, [(w, space.convexify_exact(p)) for w, p in terms]),
        )
        report.check("convexifier_linear").record(gap, terms)

        # non-expansiveness
        ku = space.convexify_exact(u)
        kv = space.convexify_exact(v)
        report.check("convexifier_nonexpansive").record(d(ku, kv) - d(u, v), u, v)

        # a repeated convex term merges its weights; the outer term stays
        # raw unless the instance cannot mix the two representations
        outer = u
        l1, l2, l3 = _sample_weights(rng, 3)
        try:
            lhs = combine(space, [(l1, outer), (l2, kv), (l3, kv)])
        except TypeError:
            outer = ku
            lhs = combine(space, [(l1, outer), (l2, kv), (l3, kv)])
        gap = d(lhs, combine(space, [(l1, outer), (l2 + l3, kv)]))
        report.check("repeated_convex_merge").record(gap, l1, l2, l3, outer, kv)

        if space.unbiased:
            # unbiased instances: self-combinations leave every point fixed
            w = space.sample(rng)
            worst = nan_max(d(self_combination(space, w, n), w) for n in (2, 5))
            ws = _sample_weights(rng, 3)
            worst = nan_max(worst, d(combine(space, [(wt, w) for wt in ws]), w))
            report.check("unbiased_identity").record(worst, w, ws)

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
    report = AxiomReport.for_space(space, tol, seed)
    d = space.distance

    def pick(rng: random.Random) -> Point:
        p = space.sample(rng)
        return space.convexify_exact(p) if convex_points else p

    for _, rng in seeded_trials(trials, seed):
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
        report.check("cancellation_equality").record(gap, lam, x, y, z)

        lam_in = rng.uniform(0.05, 0.95)
        u = combine(space, [(lam_in, x), (1.0 - lam_in, y)])
        dxy = d(x, y)
        gap = nan_max(
            abs(d(u, x) - (1.0 - lam_in) * dxy),
            abs(d(u, y) - lam_in * dxy),
        )
        report.check("endpoint_ratios").record(gap, lam_in, x, y)

        v = combine(space, [(lam_in, x), (1.0 - lam_in, z)])
        w = combine(space, [(lam_in, y), (1.0 - lam_in, z)])
        gap = abs(d(u, v) - d(y, w))
        report.check("parallelogram_transfer").record(gap, lam_in, x, y, z)

    return report
