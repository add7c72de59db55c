"""Support-function embedding of convex compacta.

The map sending a convex polytope to its support-function values is affine
over Minkowski combinations and sup-norm isometric for the Hausdorff metric,
so it is a computable witness of the abstract embedding of the convexifiable
domain into a Banach space.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

from .axioms import AxiomReport, Check, run_trials
from .core import SpaceContract, combine, nan_max
from .geometry import ConvexPolytope, FinitePointSet, convex_hull
from .instances import _vector_sampler

_UNIT_NORM_TOL = 1e-12
_TWO_PI = 2.0 * math.pi
_AFFINITY_TOL = 1e-12  # the affinity check's own bound, whatever embedding_suite's tol
_ORIGIN = ConvexPolytope(((0.0, 0.0),))


@dataclass(frozen=True)
class SupportVector:
    """Support-function values of a convex polytope over a direction set."""

    directions: tuple[tuple[float, ...], ...]
    values: tuple[float, ...]


def _unit(v: Sequence[float]) -> tuple[float, ...]:
    """``v`` as floats, or ValueError unless its norm is within
    ``_UNIT_NORM_TOL`` of 1 (a NaN norm is not)."""
    norm = math.hypot(*v)
    if not abs(norm - 1.0) <= _UNIT_NORM_TOL:
        raise ValueError(f"direction must be unit-norm, got {v!r} of norm {norm!r}")
    return tuple(float(c) for c in v)


@dataclass(frozen=True)
class AffineFunctional:
    """x -> h_x(v) for a fixed unit direction v, affine over combinations."""

    direction: tuple[float, ...]

    def __post_init__(self):
        _unit(self.direction)

    def __call__(self, body: ConvexPolytope | FinitePointSet | Sequence[float]) -> float:
        return support_function(body, self.direction)


def support_function(
    body: ConvexPolytope | FinitePointSet | Sequence[float], v: Sequence[float]
) -> float:
    """max over the body of <point, v>; exact for polytopes and point sets.  A
    vector is the body made of that one point, so its value is <vector, v>."""
    if isinstance(body, ConvexPolytope):
        pts = body.vertices
    elif isinstance(body, FinitePointSet):
        pts = body.points
    else:
        pts = (body,)
    return max(sum(c * d for c, d in zip(p, v)) for p in pts)


def axis_directions() -> tuple[tuple[float, ...], ...]:
    return ((1.0,), (-1.0,))


def angle_grid(k: int) -> tuple[tuple[float, float], ...]:
    return tuple(
        (math.cos(_TWO_PI * i / k), math.sin(_TWO_PI * i / k)) for i in range(k)
    )


def edge_normals(p: ConvexPolytope) -> tuple[tuple[float, float], ...]:
    """Outward unit normals of a polygon's edges, one per edge in edge order
    (a segment gives both sides, a point none)."""
    if p.dim != 2:
        return ()
    out = []
    for (ax, ay), (bx, by) in p.edges:
        ex, ey = bx - ax, by - ay
        norm = math.hypot(ex, ey)
        out.append((ey / norm, -ex / norm))
    if len(out) == 1:
        out.append((-out[0][0], -out[0][1]))
    return tuple(out)


def direction_set_for(*polys: ConvexPolytope, grid: int = 16) -> tuple[tuple[float, ...], ...]:
    if polys and polys[0].dim == 1:
        return axis_directions()
    dirs: list[tuple[float, float]] = list(angle_grid(grid))
    for p in polys:
        dirs.extend(edge_normals(p))
    seen = set()
    out = []
    for d in dirs:
        key = (round(d[0], 14), round(d[1], 14))
        if key not in seen:
            seen.add(key)
            out.append(d)
    return tuple(out)


def embed(p: ConvexPolytope, direction_set: Sequence[Sequence[float]]) -> SupportVector:
    """Componentwise support values; affine over polytope combinations."""
    dirs = [_unit(v) for v in direction_set]
    values = tuple(support_function(p, v) for v in dirs)
    return SupportVector(tuple(dirs), values)


def combine_support_vectors(weights: Sequence[float], svs: Sequence[SupportVector]) -> SupportVector:
    dirs = svs[0].directions
    for sv in svs:
        if sv.directions != dirs:
            raise ValueError("support vectors must share one direction set")
    values = tuple(
        math.fsum(w * sv.values[i] for w, sv in zip(weights, svs))
        for i in range(len(dirs))
    )
    return SupportVector(dirs, values)


def sup_norm_gap(a: SupportVector, b: SupportVector) -> float:
    if a.directions != b.directions:
        raise ValueError("support vectors must share one direction set")
    return nan_max(abs(x - y) for x, y in zip(a.values, b.values))


def _support_argmax(p: ConvexPolytope, theta: float) -> tuple[float, float]:
    c, s = math.cos(theta), math.sin(theta)
    return max(p.vertices, key=lambda v: v[0] * c + v[1] * s)


def embedded_distance(p: ConvexPolytope, q: ConvexPolytope) -> float:
    """sup over unit directions of |h_p - h_q|, maximized exactly.

    In d=2 the sphere splits into arcs between consecutive edge normals of
    the two polygons; on each arc the difference is a single sinusoid
    c . (cos t, sin t) whose maximum modulus sits at an arc endpoint or at
    the stationary angle of c, all evaluated in closed form.
    """
    if p.dim != q.dim:
        raise ValueError("polytopes must share one dimension")
    if p.dim == 1:
        return max(abs(p.hi - q.hi), abs(p.lo - q.lo))
    angles = set()
    for poly in (p, q):
        for nx, ny in edge_normals(poly):
            angles.add(math.atan2(ny, nx) % _TWO_PI)
    if not angles:
        angles.add(0.0)
    ordered = sorted(angles)
    best = 0.0
    for i, start in enumerate(ordered):
        end = ordered[(i + 1) % len(ordered)]
        if i == len(ordered) - 1:
            end += _TWO_PI
        mid = 0.5 * (start + end)
        pv = _support_argmax(p, mid)
        qv = _support_argmax(q, mid)
        cx, cy = pv[0] - qv[0], pv[1] - qv[1]
        candidates = [start, end]
        stationary = math.atan2(cy, cx) % _TWO_PI
        for theta in (stationary, (stationary + math.pi) % _TWO_PI):
            for shifted in (theta, theta + _TWO_PI):
                if start <= shifted <= end:
                    candidates.append(shifted)
        for theta in candidates:
            value = abs(cx * math.cos(theta) + cy * math.sin(theta))
            if value > best:
                best = value
    return best


def random_polygon(rng: random.Random, max_vertices: int = 8) -> ConvexPolytope:
    n = rng.randint(3, max_vertices)
    draw = _vector_sampler(2)
    pts = [draw(rng) for _ in range(n)]
    return convex_hull(FinitePointSet.of(pts))


def _draw_polygons(space, rng: random.Random, trial: int) -> SimpleNamespace:
    c = SimpleNamespace(p=random_polygon(rng), q=random_polygon(rng), lam=rng.uniform(0.05, 0.95))
    c.mixed = combine(space, [(c.lam, c.p), (1.0 - c.lam, c.q)])
    c.dirs = direction_set_for(c.p, c.q, c.mixed)
    c.embedded_p = embed(c.p, c.dirs)
    return c


EMBEDDING_CHECKS = (
    Check("isometry", lambda space, c: (
        abs(embedded_distance(c.p, c.q) - space.distance(c.p, c.q)), c.p.vertices, c.q.vertices)),
    Check("affinity", lambda space, c: (sup_norm_gap(
        embed(c.mixed, c.dirs),
        combine_support_vectors([c.lam, 1.0 - c.lam], [c.embedded_p, embed(c.q, c.dirs)]),
    ), c.lam, c.p.vertices, c.q.vertices), tolerance=_AFFINITY_TOL),
    Check("linear_growth", lambda space, c: (
        max(abs(v) for v in c.embedded_p.values) - space.distance(c.p, _ORIGIN), c.p.vertices)),
)


def embedding_suite(
    space: SpaceContract, trials: int = 1000, tol: float | None = None, seed: int = 0
) -> AxiomReport:
    """Isometry, affinity, and linear growth of the support embedding of the
    polygons of ``space``, a compact-sets d=2 instance.

    Per trial, for a random convex polygon pair (P, Q): the sup-norm distance
    between their support functions must match ``space.distance``; the
    embedding of their combination in ``space`` at a random weight must equal
    the weighted sum of embeddings componentwise; and each support value must
    be dominated by the distance to the origin.  The metric and the
    combination are read from ``space`` only, so a broken one fails here.
    Affinity is held to 1e-12 whatever ``tol`` is.
    """
    return run_trials(space, _draw_polygons, EMBEDDING_CHECKS, trials, tol, seed)
