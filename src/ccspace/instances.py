"""The four concrete space instances and the parser of their text form.

* ``euclidean_space``: R^d with the arithmetic weighted mean (unbiased).
* ``power_space``: R^d with sum_i w_i^r x_i for an exponent r > 1; its only
  convex point is the origin.
* ``compact_sets_space``: nonempty compact subsets of R^d (d in {1, 2}) with
  selection-wise combination and the Hausdorff metric; convexification is the
  closed convex hull.
* ``distribution_space``: finitely supported laws on R under scaled
  convolution with the Wasserstein-1 metric; convexification collapses a law
  to the Dirac mass at its mean.
"""

from __future__ import annotations

import math
import random

from .axioms import _sample_weights
from .core import SpaceContract, Terms
from .distributions import DiscreteDistribution, scaled_convolution_combine, wasserstein1
from .geometry import (
    ENUMERATION_CAP,
    ConvexPolytope,
    FinitePointSet,
    _point_dist,
    convex_hull,
    hausdorff_distance,
    minkowski_combine,
    polytope_combine,
)

SPACE_NAMES = ("euclidean", "power", "compact-sets", "distributions")
POWER_EXPONENT = 2.0  # the power space's default r

_SAMPLE_RANGE = 5.0
_SAMPLE_SIZE = 3  # most points (compact-sets) or atoms (distributions) in a sample


def _finite_vector(coords: tuple[float, ...]) -> tuple[float, ...]:
    """``coords``, or ValueError if a coordinate is NaN or infinite: such a
    tuple, parsed or combined, is no point of R^d."""
    if not all(map(math.isfinite, coords)):
        raise ValueError("coordinates must be finite")
    return coords


def _vector_sampler(dim: int):
    def sample(rng: random.Random) -> tuple[float, ...]:
        return tuple(rng.uniform(-_SAMPLE_RANGE, _SAMPLE_RANGE) for _ in range(dim))

    return sample


def euclidean_space(dim: int = 2) -> SpaceContract:
    if dim not in (1, 2, 3):
        raise ValueError("euclidean dimension must be 1, 2, or 3")

    def combine_terms(terms: Terms) -> tuple[float, ...]:
        return _finite_vector(tuple(math.fsum(w * p[c] for w, p in terms) for c in range(dim)))

    return SpaceContract(
        name=f"euclidean(d={dim})",
        distance=_point_dist,
        combine_terms=combine_terms,
        convexify_exact=lambda x: x,
        sampler=_vector_sampler(dim),
        unbiased=True,
    )


def power_space(r: float = POWER_EXPONENT, dim: int = 1) -> SpaceContract:
    if not 1.0 < r < math.inf:
        raise ValueError("power exponent must be finite and exceed 1")
    if dim not in (1, 2, 3):
        raise ValueError("power dimension must be 1, 2, or 3")

    def combine_terms(terms: Terms) -> tuple[float, ...]:
        return _finite_vector(
            tuple(math.fsum((w ** r) * p[c] for w, p in terms) for c in range(dim))
        )

    return SpaceContract(
        name=f"power(r={r}, d={dim})",
        distance=_point_dist,
        combine_terms=combine_terms,
        convexify_exact=lambda x: (0.0,) * dim,
        sampler=_vector_sampler(dim),
        unbiased=False,
    )


def _set_sampler(dim: int):
    def sample(rng: random.Random) -> FinitePointSet:
        n = rng.randint(1, _SAMPLE_SIZE)
        pts: list[tuple[float, ...]] = []
        while len(pts) < n:
            candidate = tuple(rng.uniform(-_SAMPLE_RANGE, _SAMPLE_RANGE) for _ in range(dim))
            # tie-free: coincident points would make metric-identity checks vacuous
            if all(_point_dist(candidate, p) > 1e-6 for p in pts):
                pts.append(candidate)
        return FinitePointSet.of(pts)

    return sample


def compact_sets_space(dim: int = 1, cap: int = ENUMERATION_CAP) -> SpaceContract:
    if dim not in (1, 2):
        raise ValueError("compact-sets dimension must be 1 or 2")

    def combine_terms(terms: Terms):
        weights = [w for w, _ in terms]
        values = [v for _, v in terms]
        if all(isinstance(v, FinitePointSet) for v in values):
            return minkowski_combine(weights, values, cap=cap)
        if all(isinstance(v, ConvexPolytope) for v in values):
            return polytope_combine(weights, values)
        raise TypeError(
            "cannot combine mixed point-set and polytope values; convexify first"
        )

    def convexify_exact(x):
        if isinstance(x, ConvexPolytope):
            return x
        return convex_hull(x)

    return SpaceContract(
        name=f"compact-sets(d={dim})",
        distance=hausdorff_distance,
        combine_terms=combine_terms,
        convexify_exact=convexify_exact,
        sampler=_set_sampler(dim),
        unbiased=False,
    )


def _sample_distribution(rng: random.Random) -> DiscreteDistribution:
    n = rng.randint(1, _SAMPLE_SIZE)
    atoms: list[float] = []
    while len(atoms) < n:
        a = rng.uniform(-_SAMPLE_RANGE, _SAMPLE_RANGE)
        if all(abs(a - b) > 1e-6 for b in atoms):
            atoms.append(a)
    return DiscreteDistribution.of(atoms, _sample_weights(rng, n))


def distribution_space() -> SpaceContract:
    def combine_terms(terms: Terms) -> DiscreteDistribution:
        weights = [w for w, _ in terms]
        values = [v for _, v in terms]
        return scaled_convolution_combine(weights, values)

    return SpaceContract(
        name="distributions",
        distance=wasserstein1,
        combine_terms=combine_terms,
        convexify_exact=lambda f: DiscreteDistribution.delta(f.mean()),
        sampler=_sample_distribution,
        unbiased=False,
        default_tolerance=1e-6,  # laws past ATOM_CAP atoms are quantile-resampled
    )


def get_space(name: str, dim: int = 1, r: float = POWER_EXPONENT) -> SpaceContract:
    """The named instance.  Each constructor checks the ``dim`` and exponent it
    takes; a setting the instance has no use for is rejected here."""
    if name == "power":
        return power_space(r=r, dim=dim)
    if name not in SPACE_NAMES:
        raise ValueError(f"unknown space {name!r}; expected one of {SPACE_NAMES}")
    if r != POWER_EXPONENT:
        raise ValueError(f"{name} space takes no exponent r")
    if name == "euclidean":
        return euclidean_space(dim)
    if name == "compact-sets":
        return compact_sets_space(dim)
    if dim != 1:
        raise ValueError("distributions dimension must be 1")
    return distribution_space()


# ---------------------------------------------------------------------------
# text parsing (CLI fixture formats)


def parse_vector(text: str) -> tuple[float, ...]:
    return _finite_vector(tuple(map(float, text.split(","))))


def parse_point_set(text: str) -> FinitePointSet:
    # parse_vector gives float tuples with finite coordinates
    return FinitePointSet._of_finite([parse_vector(tok) for tok in text.split()])


def parse_distribution(text: str) -> DiscreteDistribution:
    pairs = []
    for token in text.split():
        atom, _, prob = token.partition(":")
        pairs.append((float(atom), float(prob)))
    return DiscreteDistribution._of_floats(pairs)


def parse_point(space_name: str, text: str):
    """Parse one point of the named space from its text form.

    euclidean / power: a comma-separated coordinate tuple.  compact-sets: a
    whitespace-separated list of coordinate tuples, or ``hull:`` followed by
    one to make the convex polytope on those vertices.  distributions:
    whitespace-separated ``atom:prob`` pairs.
    """
    text = text.strip()
    if space_name in ("euclidean", "power"):
        return parse_vector(text)
    if space_name == "compact-sets":
        if text.startswith("hull:"):
            return convex_hull(parse_point_set(text[len("hull:"):]))
        return parse_point_set(text)
    if space_name == "distributions":
        return parse_distribution(text)
    raise ValueError(f"unknown space {space_name!r}")
