"""Core contract for metric spaces carrying an n-ary convex combination.

A space instance supplies a metric, an n-ary weighted combination, its
closed-form convexification operator and a seeded point sampler.  Everything
else in the package (checkers, expectation, limit experiments) is generic over
this contract.

Weights are checked where they enter.  ``combine`` runs
``WeightedCombination.of`` on every term list a caller hands it: the public
``combine`` and ``midpoint``, ``probability.mix_elements`` and the seeded
suites.  ``FiniteSampleSpace.of`` checks a sample space's probabilities.
A combination whose weights the library derives from checked inputs (an
expectation's probabilities, a conditional expectation's p_i / P(block), a
running mean's (n-1)/n and 1/n, ``uniform_mix``'s 1/n) passes its terms as
a ``WeightedCombination``, which ``combine`` takes as checked.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

Point = Any
Terms = Sequence[tuple[float, Point]]

# Weight sums are validated to this absolute tolerance and never silently
# re-normalized; out-of-tolerance input is an error.
WEIGHT_SUM_TOL = 1e-12
# Default check tolerance for instances with exact arithmetic.
EXACT_TOL = 1e-9


class CombinationError(ValueError):
    """Empty term list, negative weight, or weight sum off 1 beyond tolerance."""


@dataclass(frozen=True)
class WeightedCombination:
    """Terms ``(weight, point)`` with positive weights summing to one.

    Zero-weight terms are dropped at construction time; negative weights and
    weight sums farther than ``WEIGHT_SUM_TOL`` from 1 are rejected.
    """

    terms: tuple[tuple[float, Point], ...]

    @staticmethod
    def of(pairs: Iterable[tuple[float, Point]]) -> "WeightedCombination":
        kept = []
        keep = kept.append
        total = 0.0
        for weight, point in pairs:
            w = float(weight)
            if w > 0.0:
                total += w
                keep((w, point))
            elif w != 0.0:  # negative or NaN
                raise CombinationError(f"weight must be nonnegative, got {w!r}")
        if not kept:
            raise CombinationError("combination needs at least one positive-weight term")
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise CombinationError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
        return WeightedCombination(tuple(kept))

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class SpaceContract:
    """A metric space with an n-ary convex combination operation.

    ``combine_terms`` receives at least two terms with positive weights whose
    sum has already been validated; single-term combinations never reach it.
    ``convexify_exact`` maps a point to its convexification in closed form;
    ``sampler`` draws a random point from a bounded region for property
    testing.  Both are required.  ``unbiased`` marks instances whose
    convexification is the identity.  ``default_tolerance`` is the check
    tolerance when a suite is given none: ``EXACT_TOL`` for exact arithmetic;
    an instance that rounds or resamples states its own.

    ``distance``, ``combine_terms`` and ``convexify_exact`` must be pure: the
    same arguments give the same result, with no side effects.  The suites
    and random elements compute each value once and reuse it (a combination,
    a convexified value, an expectation, the distance of a pair of value
    objects), so an impure field would be checked against stale results.
    """

    name: str
    distance: Callable[[Point, Point], float]
    combine_terms: Callable[[Terms], Point]
    convexify_exact: Callable[[Point], Point]
    sampler: Callable[[random.Random], Point]
    unbiased: bool = False
    default_tolerance: float = EXACT_TOL

    def sample(self, rng: random.Random) -> Point:
        return self.sampler(rng)


def combine(space: SpaceContract, wc: WeightedCombination | Iterable[tuple[float, Point]]) -> Point:
    """Evaluate the space's combination after validating the weights; a
    ``WeightedCombination`` is taken as checked.

    A single surviving term is returned as-is, so ``combine([(1, u)]) == u``
    holds exactly in every instance.
    """
    if not isinstance(wc, WeightedCombination):
        wc = WeightedCombination.of(wc)
    if len(wc.terms) == 1:
        return wc.terms[0][1]
    return space.combine_terms(wc.terms)


def midpoint(space: SpaceContract, x: Point, y: Point) -> Point:
    return combine(space, [(0.5, x), (0.5, y)])


def uniform_mix(space: SpaceContract, points: Sequence[Point]) -> Point:
    """Equal-weight combination [n^-1, points]."""
    n = len(points)
    if n == 0:
        raise CombinationError("uniform_mix needs at least one point")
    if n == 1:
        return points[0]
    w = 1.0 / n
    return space.combine_terms([(w, p) for p in points])


def convexify(space: SpaceContract, x: Point) -> Point:
    """Convexification of ``x``: the limit of equal-weight self-combinations,
    given in closed form by the instance."""
    return space.convexify_exact(x)


def self_combination(space: SpaceContract, x: Point, n: int) -> Point:
    """[n^-1, x]^n computed directly."""
    return uniform_mix(space, [x] * n)


def trial_rng(seed: int, index: int) -> random.Random:
    """Independent per-trial stream so aggregation is order independent."""
    return random.Random((int(seed) * 1_000_003 + 1) ^ (index * 2_147_483_659))


def nan_max(*values, default: float | None = None) -> float:
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
