"""Compact subsets of R^d (d in {1, 2}) and their exact set arithmetic.

Two representations are kept side by side: ``FinitePointSet`` for arbitrary
compact sets sampled at desk scale, and ``ConvexPolytope`` (interval / convex
polygon) for convex points of the hyperspace.  A point-set combination
enumerates its weighted selection sums; a polygon combination is the hull of
its weighted vertex sums, and an interval combination takes ``math.fsum`` of
the weighted endpoints.  The Hausdorff distance has a closed form for every
pairing of the two representations, including point-set versus polytope:
a maximum over finitely many candidate distances, each evaluated in floats,
so it is not correctly rounded.  The d=2 covering radius of a polytope by
point sets measures from computed candidate points (bisector crossings,
circumcenters) and can sit several ulps below the true radius.

The Hausdorff distance is the larger of two directed distances, each with
one kernel per kind of target: to a polytope, the ends of sorted coordinates
in d=1 and an edge walk in d=2 (``_to_polytope``); to a point set, each
candidate point's nearest point, by a walk over sorted coordinates in d=1
and a sweep in x measured with ``math.hypot`` in d=2 (``_to_sites``).  Two
intervals keep their endpoint formula, and two single d=2 points are one
``math.dist`` apart.  A d=2 pairing with a polytope is scaled once by a
power of two into ``_FLOAT_BAND``; in d=2 a coordinate that is not finite
gives NaN.  Every kernel runs on Python floats; the module imports no numpy.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .core import nan_max

# Points closer than this (per coordinate) are considered duplicates.
DEDUP_RESOLUTION = 1e-12
ENUMERATION_CAP = 100_000  # most points a selection enumeration may hold
# while the largest |coordinate| has a binary exponent within this band, the
# covering radius's squared distances and its circumcenters' cubes of
# coordinates stay finite, its products of three differences near a
# coordinate's ulp stay normal floats, and so do point_to_polytope's squares
_FLOAT_BAND = 256


class EnumerationCapError(RuntimeError):
    """Selection enumeration exceeded its cap."""


def _dedup_sorted(points: list[tuple[float, ...]]) -> tuple[tuple[float, ...], ...]:
    """Sort ``points``, dropping each within ``DEDUP_RESOLUTION`` (per coordinate)
    of a kept one; only kept points that close in the first coordinate can be.

    The scan keeps points in sorted order and drops ``p`` when some kept ``q``
    has ``p[0] - q[0]`` and ``|q[1] - p[1]|`` both within the resolution.  In
    d=1 the last kept point is the only candidate.  In d=2 the kept points
    are grouped into columns of equal first coordinate, and the y values of
    a column are ascending, so only the two nearest to ``p[1]`` can match.
    """
    points.sort()
    if not points:
        return ()
    if len(points[0]) == 1:
        kept = [points[0]]
        last = points[0][0]
        for p in points[1:]:
            # written so that an infinite gap (inf - inf is NaN) keeps p
            if not p[0] - last <= DEDUP_RESOLUTION:
                kept.append(p)
                last = p[0]
        return tuple(kept)
    kept = []
    xs: list[float] = []  # first coordinate of each column of kept points
    cols: list[list[float]] = []  # ascending second coordinates per column
    for p in points:
        x, y = p
        k = len(xs) - 1
        while k >= 0 and x - xs[k] <= DEDUP_RESOLUTION:
            ys = cols[k]
            i = bisect_left(ys, y)
            if (i < len(ys) and abs(ys[i] - y) <= DEDUP_RESOLUTION) or (
                i and abs(ys[i - 1] - y) <= DEDUP_RESOLUTION
            ):
                break
            k -= 1
        else:
            kept.append(p)
            if xs and xs[-1] == x:
                cols[-1].append(y)
            else:
                xs.append(x)
                cols.append([y])
    return tuple(kept)


@dataclass(frozen=True)
class FinitePointSet:
    """Nonempty finite set of points, lexicographically sorted, deduplicated."""

    points: tuple[tuple[float, ...], ...]

    @staticmethod
    def of(points: Iterable[Sequence[float]]) -> "FinitePointSet":
        pts = [tuple(map(float, p)) for p in points]
        FinitePointSet._check_shape(pts)
        if not all(map(math.isfinite, itertools.chain.from_iterable(pts))):
            raise ValueError("coordinates must be finite")
        return FinitePointSet(_dedup_sorted(pts))

    @staticmethod
    def _of_finite(pts: list[tuple[float, ...]]) -> "FinitePointSet":
        """``of`` for tuples of finite Python floats, as the fixture parser
        gives them: the same shape checks and messages, without converting
        and checking each coordinate again."""
        FinitePointSet._check_shape(pts)
        return FinitePointSet(_dedup_sorted(pts))

    @staticmethod
    def _check_shape(pts: list[tuple[float, ...]]) -> None:
        if not pts:
            raise ValueError("point set must be nonempty")
        dims = set(map(len, pts))
        if len(dims) != 1:
            raise ValueError("points must share one dimension")
        if not dims <= {1, 2}:
            raise ValueError("points must have dimension 1 or 2")

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ConvexPolytope:
    """Convex compact subset of R^1 (interval) or R^2 (polygon).

    Vertices are canonical: in d=1 the pair ``(lo,), (hi,)`` (one vertex when
    degenerate); in d=2 a counterclockwise strictly convex vertex list rotated
    to start at the lexicographic minimum.  Equality of canonical forms is
    exact tuple equality.
    """

    vertices: tuple[tuple[float, ...], ...]

    @staticmethod
    def interval(lo: float, hi: float) -> "ConvexPolytope":
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if lo > hi:
            raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
        if hi - lo <= DEDUP_RESOLUTION:
            return ConvexPolytope(((lo,),))
        return ConvexPolytope(((lo,), (hi,)))

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    @property
    def lo(self) -> float:
        if self.dim != 1:
            raise ValueError("lo is defined for intervals only")
        return self.vertices[0][0]

    @property
    def hi(self) -> float:
        if self.dim != 1:
            raise ValueError("hi is defined for intervals only")
        return self.vertices[-1][0]

    @cached_property
    def edges(self) -> tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]:
        """Boundary segments ``(a, b)`` in vertex order: none for a point, one
        for a segment, and n for an n-gon, the last one closing the loop."""
        verts = self.vertices
        if len(verts) < 3:
            return tuple(zip(verts, verts[1:]))
        return tuple(zip(verts, verts[1:] + verts[:1]))

    @cached_property
    def edge_spans(self) -> tuple[tuple[float, float, float, float, float], ...]:
        """``(ax, ay, dx, dy, dx*dx + dy*dy)`` of each polygon edge ``(a, b)``
        in ``edges``, with ``(dx, dy) = b - a``; d=2 only."""
        spans = []
        for (ax, ay), (bx, by) in self.edges:
            dx, dy = bx - ax, by - ay
            spans.append((ax, ay, dx, dy, dx * dx + dy * dy))
        return tuple(spans)


def _cross(o: Sequence[float], a: Sequence[float], b: Sequence[float]) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _monotone_chain(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Counterclockwise hull, strictly convex (collinear vertices dropped).

    The hull starts at the lexicographic minimum of ``points``, as a canonical
    ``ConvexPolytope`` does: ``lower[0]`` is the first sorted point and is
    never popped.  (Tuples with a NaN coordinate have no minimum to start at.)
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def convex_hull(a: FinitePointSet) -> ConvexPolytope:
    """Smallest convex set containing ``a``: [min, max] in d=1, planar hull in d=2."""
    if a.dim == 1:
        values = [p[0] for p in a.points]
        return ConvexPolytope.interval(min(values), max(values))
    if a.dim != 2:
        raise ValueError("convex hull supports d in {1, 2}")
    return ConvexPolytope(tuple(_monotone_chain([(p[0], p[1]) for p in a.points])))


def _scaled(w: float, points: Sequence[tuple[float, ...]]) -> list[tuple[float, ...]]:
    if len(points[0]) == 1:
        return [(w * x,) for (x,) in points]
    return [(w * x, w * y) for x, y in points]


def _sums(acc: Sequence[tuple[float, ...]], wq: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    if len(acc[0]) == 1:
        return [(p + q,) for (p,) in acc for (q,) in wq]
    return [(px + qx, py + qy) for px, py in acc for qx, qy in wq]


def _self_sums(acc: list[tuple[float, ...]], wq: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """``acc[i] + wq[j]`` for ``i <= j`` only, where ``acc[i]`` is ``0.0 + wq[i]``."""
    if len(acc[0]) == 1:
        return [(p + q,) for i, (p,) in enumerate(acc) for (q,) in wq[i:]]
    return [(px + qx, py + qy) for i, (px, py) in enumerate(acc) for qx, qy in wq[i:]]


def minkowski_combine(
    weights: Sequence[float], sets: Sequence[FinitePointSet], cap: int = ENUMERATION_CAP
) -> FinitePointSet:
    """Selection-wise combination {sum_i w_i u_i : u_i in A_i} of point sets.

    Enumerates selections incrementally with deduplication.  An intermediate
    set of more than ``cap`` points raises ``EnumerationCapError``.

    A combination of a set with itself at equal weights, such as a midpoint
    ``[1/2, (A, A)]``, enumerates each unordered pair once.  The pair (i, j)
    gives ``(0.0 + w a_i) + w a_j``; IEEE addition is commutative and
    ``0.0 + v`` changes only the sign of a zero, so (j, i) gives the same
    bits.  That holds only while the first step keeps every point, since
    the second step pairs the kept points with every point of the set.
    """
    if len(weights) != len(sets):
        raise ValueError("weights and sets must align")
    if not sets:
        raise ValueError("need at least one set")
    dim = sets[0].dim
    if any(s.dim != dim for s in sets):
        raise ValueError("sets must share one dimension")
    acc: Sequence[tuple[float, ...]] = ((0.0,) * dim,)
    for k, (w, s) in enumerate(zip(weights, sets)):
        wq = _scaled(w, s.points)
        if k == 0:
            first = _sums(acc, wq)  # 0.0 + w q, in the order of s.points
            acc = _dedup_sorted(list(first))
            symmetric = (
                len(sets) == 2 and weights[1] == w and sets[1] == s and len(acc) == len(first)
            )
        elif symmetric:
            acc = _dedup_sorted(_self_sums(first, wq))
        else:
            acc = _dedup_sorted(_sums(acc, wq))
        if len(acc) > cap:
            raise EnumerationCapError(f"{len(acc)} selection points exceed cap {cap}")
    return FinitePointSet(acc)


def _interval_combine(
    weights: Sequence[float], verts: Sequence[tuple[tuple[float], ...]]
) -> ConvexPolytope:
    """The interval of ``sum_i w_i [lo_i, hi_i]``, from each interval's vertices."""
    lo = math.fsum([w * v[0][0] for w, v in zip(weights, verts)])
    hi = math.fsum([w * v[-1][0] for w, v in zip(weights, verts)])
    return ConvexPolytope.interval(lo, hi)


def polytope_combine(weights: Sequence[float], polys: Sequence[ConvexPolytope]) -> ConvexPolytope:
    """Scaled Minkowski sum ``sum_i w_i P_i`` of convex polytopes.

    An interval combination takes ``math.fsum`` of the weighted endpoints.
    A polygon combination is the hull of its weighted vertex sums, since
    P + Q = conv{p + q : p in vert P, q in vert Q}: one fold over the terms
    takes ``minkowski_combine``'s selection sums and ``convex_hull``'s chain.
    """
    if len(weights) != len(polys):
        raise ValueError("weights and polytopes must align")
    if not polys:
        raise ValueError("need at least one polytope")
    verts = [p.vertices for p in polys]
    dim = len(verts[0][0])
    if any(len(v[0]) != dim for v in verts):
        raise ValueError("polytopes must share one dimension")
    if dim == 1:
        return _interval_combine(weights, verts)
    acc: Sequence[tuple[float, ...]] = ((0.0, 0.0),)
    for w, v in zip(weights, verts):
        acc = _monotone_chain(_sums(acc, _scaled(w, v)))
    return ConvexPolytope(tuple(acc))


# ---------------------------------------------------------------------------
# distances


# the Euclidean distance of two points; ValueError when their dimensions differ
_point_dist = math.dist


def _in_polygon(poly: ConvexPolytope, pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The points of ``pts`` in the polygon, in order, by ``point_to_polytope``'s
    containment test: on no edge's right, with the cross product in
    ``_cross``'s operation order.  Below three vertices nothing is inside,
    and a NaN cross product reads as inside."""
    if len(poly.vertices) < 3:
        return []
    for ax, ay, dx, dy, _ in poly.edge_spans:
        pts = [p for p in pts if not dx * (p[1] - ay) - dy * (p[0] - ax) < 0.0]
    return pts


def point_to_polytope(p: Sequence[float], poly: ConvexPolytope) -> float:
    """Distance from ``p`` to ``poly``.

    For a polygon or segment, one loop over ``edge_spans`` makes both the
    containment test and the least distance to an edge.  ``p`` is inside
    when the polygon has three vertices or more and ``p`` is on no edge's
    right (``_cross(a, b, p) < 0``); a NaN cross product reads as inside.
    Each edge's distance projects ``p`` onto the segment and clamps the
    parameter as ``min(1.0, max(0.0, t))`` does, and the least distance is
    taken as ``min`` takes it, so a NaN first distance is the result.
    """
    if poly.dim == 1:
        x = p[0]
        return max(poly.lo - x, x - poly.hi, 0.0)
    if len(poly.vertices) == 1:
        return _point_dist(p, poly.vertices[0])
    px, py = p
    outside = len(poly.vertices) < 3
    best = None
    for ax, ay, dx, dy, denom in poly.edge_spans:
        ux, uy = px - ax, py - ay
        if dx * uy - dy * ux < 0.0:
            outside = True
        if denom == 0.0:
            d = math.hypot(ux, uy)
        else:
            t = (ux * dx + uy * dy) / denom
            t = t if t > 0.0 else 0.0
            t = t if t < 1.0 else 1.0
            d = math.hypot(px - (ax + t * dx), py - (ay + t * dy))
        if best is None or d < best:
            best = d
    return best if outside else 0.0


def _farthest_nearest_gap(xs: Sequence[float], ys: Sequence[float], worst: float = -math.inf) -> float:
    """The larger of ``worst`` and the largest gap ``abs(x - y)`` from an
    ``x`` of ``xs`` to its nearest ``y`` of ``ys``, both sorted; NaN at the
    first NaN gap, or when ``worst`` is NaN.

    The walk keeps ``y = ys[j]`` at the last ``y`` at most ``x`` (or at the
    first ``y``), so the nearest is ``y`` or ``nxt = ys[j + 1]``; past the
    last ``y``, ``nxt`` is NaN, which every comparison reads as false.  A
    gap is NaN where the pairwise gaps have one: for an ``x`` and a ``y`` at
    the same infinity, where ``y`` is that infinity, and for a NaN ``x``,
    whose every gap is NaN.  A NaN ``y`` leaves ``ys`` out of order, but its
    own walk, ``_farthest_nearest_gap(ys, xs)``, returns NaN.
    """
    j, last = 0, len(ys) - 1
    y, nxt = ys[0], (ys[1] if last else math.nan)
    for x in xs:
        while nxt <= x:
            j += 1
            y, nxt = nxt, (ys[j + 1] if j < last else math.nan)
        gap = abs(x - y)
        if nxt - x < gap:
            gap = nxt - x
        if gap > worst:
            worst = gap
        elif gap != gap:
            return gap
    return worst


def _farthest_nearest(queries: Sequence[Sequence[float]], sites: Iterable[Sequence[float]],
                      worst: float = -math.inf) -> float:
    """The larger of ``worst`` and each d=2 query's distance to its nearest
    site, ``math.hypot(qx - sx, qy - sy)``: the bits of the loop over every
    pair, or NaN when a coordinate of either argument is not finite.

    Each query bisects to its place among the sites sorted by x and scans
    outward, the nearer side in x first, until the gap in x reaches its best
    distance (``hypot`` is never below either argument), and stops as soon
    as its best is at or below the running maximum.
    """
    order = sorted(sites, key=operator.itemgetter(0))
    if not all(map(math.isfinite, itertools.chain(*queries, *order))):
        return math.nan
    xs = [x for x, _ in order]
    n = len(order)
    hypot, inf = math.hypot, math.inf
    for qx, qy in queries:
        hi = bisect_left(xs, qx)
        lo = hi - 1
        left = qx - xs[lo] if lo >= 0 else inf
        right = xs[hi] - qx if hi < n else inf
        best = inf
        while True:
            if left <= right:
                if left >= best:
                    break
                sx, sy = order[lo]
                lo -= 1
                left = qx - xs[lo] if lo >= 0 else inf
            else:
                if right >= best:
                    break
                sx, sy = order[hi]
                hi += 1
                right = xs[hi] - qx if hi < n else inf
            d = hypot(qx - sx, qy - sy)
            if d < best:
                best = d
                if best <= worst:
                    break
        if best > worst:
            worst = best
    return worst


def _sites_to_interval(xs: Sequence[float], lo: float, hi: float) -> float:
    """``nan_max(point_to_polytope((x,), [lo, hi]) for x in xs)`` for ascending
    ``xs``, from its ends.

    ``lo - x`` falls and ``x - hi`` rises along ``xs`` (rounding is monotone),
    so a positive maximum sits at an end.  A zero maximum is the first
    site's value, whose sign the loop's ``max`` keeps.  A NaN sum (a NaN
    site, or sites at both infinities) runs the loop, which keeps a NaN
    wherever it sits.
    """
    if math.isnan(sum(xs)):
        return nan_max(max(lo - x, x - hi, 0.0) for x in xs)
    far = max(lo - xs[0], xs[-1] - hi)
    return far if far > 0.0 else max(lo - xs[0], xs[0] - hi, 0.0)


def _bisector_edge_hits(
    sites: Sequence[Sequence[float]],
    edges: Sequence[tuple[tuple[float, float], tuple[float, float]]],
    pairs: Iterable[tuple[int, int, int]],
) -> list[tuple[float, float]]:
    """Where the bisector of sites ``i < j`` crosses edge ``e``, per ``(i, j, e)``."""
    hits: list[tuple[float, float]] = []
    for i, j, e in pairs:
        sx, sy = sites[i]
        tx, ty = sites[j]
        mx, my = 0.5 * (sx + tx), 0.5 * (sy + ty)
        dx, dy = tx - sx, ty - sy
        a, b = edges[e]
        ex, ey = b[0] - a[0], b[1] - a[1]
        denom = ex * dx + ey * dy
        if denom == 0.0:
            continue
        t = ((mx - a[0]) * dx + (my - a[1]) * dy) / denom
        if 0.0 <= t <= 1.0:
            hits.append((a[0] + t * ex, a[1] + t * ey))
    return hits


def _circumcenters(
    sites: Sequence[Sequence[float]], triples: Iterable[tuple[int, int, int]]
) -> list[tuple[float, float]]:
    """Circumcenters of the site triples ``(i, j, k)``, but of those whose
    determinant is 0.0 (collinear in floats)."""
    centers = []
    for i, j, k in triples:
        (ax, ay), (bx, by), (cx, cy) = sites[i], sites[j], sites[k]
        d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        if d != 0.0:
            a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
            centers.append(((a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d,
                            (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d))
    return centers


def _nearest_first(sites: Sequence[Sequence[float]]) -> Iterator[Iterator[tuple[float, int]]]:
    """For each d=2 site in turn, the ``(d², index)`` of every site (itself
    included), nearest first and ties by index, where ``d²`` is
    ``dx*dx + dy*dy``: a stable argsort of the site's row of squared
    distances.  Coordinates must be finite.

    The sites are sorted by (x, y) into columns of equal x.  A site's
    neighbours come in batches of growing bound ``r²``: the first bound is
    eight times the square of the least gap to a site next to it in its
    column or to a column next to its own, and each later one four times
    the last.  A batch widens, site by site, the run of columns with
    ``dx*dx <= r²`` around the site's own, and in each column the run with
    ``d² <= r²`` around the site's y (rounding is monotone, so both are
    runs).  So it holds exactly the sites with ``d²`` in (previous bound,
    ``r²``], sorted by ``(d², index)``.  A bound of inf takes every site
    left.
    """
    m, inf = len(sites), math.inf
    xs: list[float] = []  # the x of each column
    cols: list[tuple[list[float], list[int]]] = []  # each column's ascending y, and their sites
    column = [0] * m
    for j in sorted(range(m), key=sites.__getitem__):
        x, y = sites[j]
        if not xs or xs[-1] != x:
            xs.append(x)
            cols.append(([], []))
        cols[-1][0].append(y)
        cols[-1][1].append(j)
        column[j] = len(xs) - 1

    def batches(i: int) -> Iterator[list[tuple[float, int]]]:
        sx, sy = sites[i]
        left = right = own = column[i]  # columns left..right-1 are open
        ys = cols[own][0]
        k = bisect_left(ys, sy)
        gap = min(sy - ys[k - 1] if k else inf, ys[k + 1] - sy if k + 1 < len(ys) else inf,
                  sx - xs[own - 1] if own else inf, xs[own + 1] - sx if own + 1 < len(xs) else inf)
        r2 = 8.0 * gap * gap
        runs: dict[int, tuple[int, int]] = {}  # each open column's run of taken sites
        taken = 0
        while True:
            while left and (sx - xs[left - 1]) * (sx - xs[left - 1]) <= r2:
                left -= 1
            while right < len(xs) and (sx - xs[right]) * (sx - xs[right]) <= r2:
                right += 1
            batch = []
            for c in range(left, right):
                ys, ids = cols[c]
                lo, hi = runs.get(c) or (bisect_left(ys, sy),) * 2
                dx2 = (sx - xs[c]) * (sx - xs[c])
                while lo:
                    dy = sy - ys[lo - 1]
                    d2 = dx2 + dy * dy
                    if d2 > r2:
                        break
                    lo -= 1
                    batch.append((d2, ids[lo]))
                while hi < len(ys):
                    dy = sy - ys[hi]
                    d2 = dx2 + dy * dy
                    if d2 > r2:
                        break
                    batch.append((d2, ids[hi]))
                    hi += 1
                runs[c] = lo, hi
            batch.sort()
            yield batch
            taken += len(batch)
            if taken == m or r2 == inf:
                return
            r2 = 4.0 * r2 or math.ulp(0.0)  # a bound of 0.0 grows from the least float

    return (itertools.chain.from_iterable(batches(i)) for i in range(m))


_REACH2 = operator.itemgetter(3)  # a cell vertex's squared distance from its site


def _clipped_cell_labels(
    poly: ConvexPolytope, sites: Sequence[Sequence[float]]
) -> tuple[set[tuple[int, int, int]], set[tuple[int, int, int]]]:
    """Bisector-edge pairs and bisector triples that meet at a vertex of some
    site's Voronoi cell clipped to ``poly`` (Sutherland-Hodgman).

    Each cell vertex carries the label of its outgoing edge's supporting line
    (a site ``j >= 0`` for the bisector with site ``j``, or ``~e < 0`` for
    polygon edge ``e``) and its squared distance from ``s_i``.  A cell
    vertex sits where its incoming and outgoing lines meet.  Site ``i``'s
    cell is clipped by the other sites in ``_nearest_first`` order, and
    clipping stops once the next site is more than twice the cell's reach
    from ``s_i``: its bisector then lies beyond every point of the cell, so
    the batches past that reach are never gathered.
    """
    n_edges = len(poly.edges)
    # vertex k starts edge k; a segment's second vertex starts its one edge, walked back
    boundary = [(x, y, ~(k % n_edges)) for k, (x, y) in enumerate(poly.vertices)]
    pairs, triples = set(), set()
    for i, neighbours in enumerate(_nearest_first(sites)):
        sx, sy = sites[i]
        cell = [(x, y, label, (x - sx) * (x - sx) + (y - sy) * (y - sy)) for x, y, label in boundary]
        for d2, j in neighbours:
            if j == i:
                continue
            if d2 > 4.0 * max(cell, key=_REACH2)[3]:
                break
            tx, ty = sites[j]
            mx, my = 0.5 * (sx + tx), 0.5 * (sy + ty)
            dx, dy = tx - sx, ty - sy
            clipped = []
            px, py, plabel, _ = cell[-1]
            gp = (px - mx) * dx + (py - my) * dy
            for vertex in cell:
                x, y, label, _ = vertex
                g = (x - mx) * dx + (y - my) * dy
                if (g <= 0.0) != (gp <= 0.0):
                    t = gp / (gp - g)
                    cx, cy = px + t * (x - px), py + t * (y - py)
                    clipped.append((cx, cy, plabel if g <= 0.0 else j, (cx - sx) * (cx - sx) + (cy - sy) * (cy - sy)))
                if g <= 0.0:
                    clipped.append(vertex)
                px, py, plabel, gp = x, y, label, g
            cell = clipped
            if not cell:
                break
        for (_, _, a, _), (_, _, b, _) in zip(cell[-1:] + cell[:-1], cell):
            if a >= 0 and b >= 0 and a != b:
                triples.add(tuple(sorted((i, a, b))))
            elif (a >= 0) != (b >= 0):
                j, e = (a, ~b) if a >= 0 else (b, ~a)
                pairs.add((min(i, j), max(i, j), e))
    return pairs, triples


def _points(x: FinitePointSet | ConvexPolytope) -> tuple[tuple[float, ...], ...]:
    return x.vertices if isinstance(x, ConvexPolytope) else x.points


def _in_float_band(
    a: FinitePointSet | ConvexPolytope, b: FinitePointSet | ConvexPolytope
) -> tuple[int, FinitePointSet | ConvexPolytope, FinitePointSet | ConvexPolytope] | None:
    """``(e, a, b)``, both d=2 operands scaled by ``2**-e`` when the largest
    |coordinate| has a binary exponent ``e`` outside ``±_FLOAT_BAND`` (else
    ``e = 0``), or None when a coordinate is not finite.  The scaling is
    exact short of subnormals, so a distance on the returned operands is the
    given ones' times ``2**-e``."""
    top = 0.0
    for x in itertools.chain(*_points(a), *_points(b)):
        if not abs(x) <= top:  # a larger |x|, or NaN
            top = abs(x)
            if not top < math.inf:
                return None
    e = math.frexp(top)[1]
    if -_FLOAT_BAND <= e <= _FLOAT_BAND:
        return 0, a, b
    return e, *(type(x)(tuple((math.ldexp(u, -e), math.ldexp(v, -e)) for u, v in _points(x)))
                for x in (a, b))


def _to_polytope(a: FinitePointSet | ConvexPolytope, poly: ConvexPolytope, worst: float = -math.inf) -> float:
    """``nan_max(worst, sup over a of the distance to poly)``, which sits at a
    point of a point set or a vertex of a polytope (the distance is convex).

    d=1 reads the ends of the sorted points of a point set ``a``
    (``_sites_to_interval``).  In d=2 each point walks the edges
    (``point_to_polytope``, whose containment test gives 0.0 inside a
    polygon).  A d=2 distance is +0.0 or more (or NaN), so starting the
    maximum at 0.0 in their place keeps its bits.
    """
    if poly.dim == 1:
        return nan_max(worst, _sites_to_interval(sorted([x for (x,) in a.points]), poly.lo, poly.hi))
    if worst < 0.0:
        worst = 0.0
    for p in _points(a):
        d = point_to_polytope(p, poly)
        if d > worst:
            worst = d
        elif d != d:
            return d
    return worst


def _to_sites(a: FinitePointSet | ConvexPolytope, sites: FinitePointSet, worst: float = -math.inf) -> float:
    """``nan_max(worst, sup over a of the distance to the nearest site)``: the
    largest nearest-site distance of finitely many candidates, measured by
    the walk ``_farthest_nearest_gap`` in d=1 and the sweep
    ``_farthest_nearest`` in d=2.

    The candidates are a point set's points; an interval's ends and the
    midpoints of adjacent sites inside it; or the vertices of the sites'
    Voronoi cells clipped to a polygon (``_clipped_cell_labels``): its
    vertices, boundary points equidistant to two sites and the
    circumcenters of three that ``_in_polygon`` keeps.  Those are float points, so a polygon's result is
    not correctly rounded: on the n-fold self-averages of the ``two-point``
    triangle (n <= 32) it sits from 7.05 ulps below to 1.2 above the radius
    recomputed in exact rationals from the same clipping labels.
    """
    if sites.dim == 1:
        ys = sorted([y for (y,) in sites.points])
        if isinstance(a, FinitePointSet):
            xs = sorted([x for (x,) in a.points])
        else:  # a midpoint as 0.5 * left + 0.5 * right, which does not overflow
            lo, hi = a.lo, a.hi
            xs = [lo, *[mid for left, right in zip(ys, ys[1:])
                        if lo <= (mid := 0.5 * left + 0.5 * right) <= hi], hi]
        return _farthest_nearest_gap(xs, ys, worst)
    if isinstance(a, FinitePointSet):
        return _farthest_nearest(a.points, sites.points, worst)
    cands = list(a.vertices)
    if len(sites) >= 2 and len(cands) >= 2:
        pairs, triples = _clipped_cell_labels(a, sites.points)
        cands += _bisector_edge_hits(sites.points, a.edges, pairs)
        cands += _in_polygon(a, _circumcenters(sites.points, triples))
    return _farthest_nearest(cands, sites.points, worst)


def hausdorff_distance(
    a: FinitePointSet | ConvexPolytope, b: FinitePointSet | ConvexPolytope
) -> float:
    """Hausdorff distance between compact sets in either representation, in
    closed form (see the module docstring): the larger of the two directed
    distances (``_to_polytope``, ``_to_sites``), a point set's first, keeping
    it on a tie, so that both argument orders give the same bits."""
    a_poly, b_poly = isinstance(a, ConvexPolytope), isinstance(b, ConvexPolytope)
    if a_poly and b_poly:
        pa, pb = a.vertices, b.vertices
        if len(pa[0]) == 1 == len(pb[0]):  # intervals: the larger endpoint gap
            lo_gap, hi_gap = abs(pa[0][0] - pb[0][0]), abs(pa[-1][0] - pb[-1][0])
            return hi_gap if hi_gap > lo_gap else lo_gap  # max() without its call
    pa, pb = _points(a), _points(b)
    dim = len(pa[0])
    if dim != len(pb[0]):
        raise ValueError("operands must share one dimension")
    if dim == 2 and len(pa) == len(pb) == 1:  # two points
        d = _point_dist(pa[0], pb[0])
        # inf is an overflow unless a coordinate is not finite, which gives NaN
        return d if d < math.inf or all(map(math.isfinite, pa[0] + pb[0])) else math.nan
    if a_poly and not b_poly:
        a, b, a_poly, b_poly = b, a, False, True
    e = 0
    if dim == 2 and b_poly:
        band = _in_float_band(a, b)
        if band is None:
            return math.nan
        e, a, b = band
    d = _to_polytope(a, b) if b_poly else _to_sites(a, b)
    d = _to_polytope(b, a, d) if a_poly else _to_sites(b, a, d)
    try:
        return math.ldexp(d, e)
    except OverflowError:  # past the largest float, which rounds to inf
        return math.inf
