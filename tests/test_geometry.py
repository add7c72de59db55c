import hashlib
import itertools
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ccspace
from ccspace import (
    ConvexPolytope,
    EnumerationCapError,
    FinitePointSet,
    convex_hull,
    hausdorff_distance,
    minkowski_combine,
    polytope_combine,
)
from ccspace.core import nan_max, self_combination
from ccspace.embedding import edge_normals
from ccspace.fixtures import convexify_point
from ccspace.geometry import (
    DEDUP_RESOLUTION,
    _clipped_cell_labels,
    _cross,
    _dedup_sorted,
    _farthest_nearest,
    _in_float_band,
    _in_polygon,
    _nearest_first,
    _point_dist,
    _sites_to_interval,
    _to_polytope,
    _to_sites,
    point_to_polytope,
)
from ccspace.instances import compact_sets_space

coord = st.floats(-10, 10, allow_nan=False)
point2 = st.tuples(coord, coord)
point1 = st.tuples(coord)
# coordinates clustered within a few DEDUP_RESOLUTION of three values
near_coord = st.builds(
    lambda base, offset: base + offset,
    st.sampled_from((0.0, 1.0, -3.5)),
    st.floats(-3 * DEDUP_RESOLUTION, 3 * DEDUP_RESOLUTION),
)
# coordinates on ladders whose step is just under, at or just over DEDUP_RESOLUTION
ladder_coord = st.builds(
    lambda base, step, k: base + k * step * DEDUP_RESOLUTION,
    st.sampled_from((0.0, 1.0, -3.5)),
    st.sampled_from((0.4, 0.5, 0.99, 1.0, 1.01, 1.5, 2.0)),
    st.integers(0, 5),
)
dedup_coord = st.one_of(near_coord, ladder_coord, st.sampled_from((0.0, -0.0, math.inf, -math.inf)))


def bits(points):
    """Points as hex strings, so that 0.0 and -0.0 differ."""
    return [tuple(map(float.hex, p)) for p in points]


def reference_dedup_sorted(points):
    """Oracle: the dedup loop before it was split per dimension."""
    points.sort()
    kept = []
    for p in points:
        for q in reversed(kept):
            if p[0] - q[0] > DEDUP_RESOLUTION:
                kept.append(p)
                break
            if all(abs(a - b) <= DEDUP_RESOLUTION for a, b in zip(q, p)):
                break
        else:
            kept.append(p)
    return tuple(kept)


def brute_minkowski(weights, sets):
    """Oracle: enumerate every selection directly.

    The sums are canonicalized by ``FinitePointSet.of``, which by contract
    merges points closer than ``DEDUP_RESOLUTION``; an exact ``set`` would
    keep rounding twins such as 1/3 and 1/3 + 5.5e-17 apart.
    """
    dim = sets[0].dim
    out = [
        tuple(math.fsum(w * p[c] for w, p in zip(weights, choice)) for c in range(dim))
        for choice in itertools.product(*[s.points for s in sets])
    ]
    return list(FinitePointSet.of(out).points)


def grid_directions(k=720):
    return [(math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k)) for i in range(k)]


# ---------------------------------------------------------------------------
# point sets and hulls


def test_point_set_dedup_and_order():
    s = FinitePointSet.of([(1.0,), (0.0,), (1.0 + 1e-13,)])
    assert s.points == ((0.0,), (1.0,))


def test_point_set_dedup_merges_twins_that_sort_apart():
    # lexicographic order puts (0, 6) between the two near-equal points
    s = FinitePointSet.of([(0.0, 5.0), (0.0, 6.0), (1e-13, 5.0)])
    assert s.points == ((0.0, 5.0), (0.0, 6.0))
    pts = [(0.0, 0.0), (1.0, 0.0), (2.220446049250313e-16, 1.0), (-1.0, 0.0), (-2.318970003559566e-89, 1.0)]
    hull = convex_hull(FinitePointSet.of(pts))
    assert convex_hull(FinitePointSet.of(hull.vertices)).vertices == hull.vertices


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((1, 2)).flatmap(
    lambda d: st.lists(st.tuples(*[near_coord] * d), min_size=1, max_size=12)
))
def test_dedup_sorted_is_idempotent(pts):
    # minkowski_combine returns its last deduplicated step without a second pass
    once = _dedup_sorted(list(pts))
    assert list(once) == sorted(once)
    assert _dedup_sorted(list(once)) == once


# exact columns of near-duplicate lattice points, as self-midpoints produce
_rng = random.Random(12)
LATTICE_COLUMNS = [(i / 7 + _rng.choice((0.0, 1e-16, -1e-16)), j / 9 + _rng.choice((0.0, 5e-13, 2e-12)))
                   for i in range(8) for j in range(10) for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 2)).flatmap(
    lambda d: st.lists(st.tuples(*[dedup_coord] * d), min_size=0, max_size=40)
))
@example(pts=LATTICE_COLUMNS)
# inf - inf is NaN, so the reference keeps every infinite twin
@example(pts=[(math.inf,), (math.inf,), (-math.inf,), (-math.inf,), (0.0,)])
@example(pts=[(math.inf, 0.0), (math.inf, 0.0), (0.0, math.inf), (0.0, math.inf), (0.0, 1.0)])
def test_dedup_sorted_matches_reference_loop(pts):
    assert bits(_dedup_sorted(list(pts))) == bits(reference_dedup_sorted(list(pts)))


def test_point_set_rejects_empty_and_mixed_dims():
    with pytest.raises(ValueError):
        FinitePointSet.of([])
    with pytest.raises(ValueError):
        FinitePointSet.of([(0.0,), (0.0, 1.0)])


@pytest.mark.parametrize("pts", [[(0, 0, 0), (1, 2, 3)], [()], [(1.0, 2.0, 3.0, 4.0)]])
def test_point_set_rejects_dims_other_than_one_or_two(pts):
    with pytest.raises(ValueError, match="dimension 1 or 2"):
        FinitePointSet.of(pts)


def test_convex_hull_interval():
    assert convex_hull(FinitePointSet.of([(0.0,), (0.3,), (1.0,)])).vertices == ((0.0,), (1.0,))


def test_convex_hull_square_drops_interior():
    s = FinitePointSet.of([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)])
    hull = convex_hull(s)
    assert hull.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def test_convex_hull_singleton_and_segment():
    assert convex_hull(FinitePointSet.of([(2.0, 3.0)])).vertices == ((2.0, 3.0),)
    seg = convex_hull(FinitePointSet.of([(0.0, 0.0), (1.0, 1.0), (0.5, 0.5)]))
    assert seg.vertices == ((0.0, 0.0), (1.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(st.lists(point2, min_size=1, max_size=12))
def test_convex_hull_contains_all_points(pts):
    s = FinitePointSet.of(pts)
    hull = convex_hull(s)
    assert all(point_to_polytope(p, hull) <= 1e-9 for p in s.points)


@settings(max_examples=150, deadline=None)
@given(st.lists(point2, min_size=1, max_size=12))
def test_convex_hull_idempotent(pts):
    hull = convex_hull(FinitePointSet.of(pts))
    again = convex_hull(FinitePointSet.of(hull.vertices))
    assert again.vertices == hull.vertices


# ---------------------------------------------------------------------------
# minkowski combinations


def test_minkowski_two_point_example():
    a = FinitePointSet.of([(0.0,), (1.0,)])
    b = FinitePointSet.of([(2.0,)])
    got = minkowski_combine([0.5, 0.5], [a, b])
    assert got.points == ((1.0,), (1.5,))


def test_minkowski_identity_weight():
    a = FinitePointSet.of([(0.0,), (1.0,), (3.5,)])
    assert minkowski_combine([1.0], [a]).points == a.points


def test_minkowski_self_combination_dedups():
    a = FinitePointSet.of([(0.0,), (1.0,)])
    got = minkowski_combine([0.5, 0.5], [a, a])
    assert got.points == ((0.0,), (0.5,), (1.0,))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(point1, min_size=1, max_size=3), min_size=2, max_size=4),
    st.randoms(use_true_random=False),
)
def test_minkowski_matches_brute_force(groups, rng):
    sets = [FinitePointSet.of(g) for g in groups]
    raw = [rng.uniform(0.1, 1.0) for _ in sets]
    weights = [w / sum(raw) for w in raw]
    weights[-1] = 1.0 - sum(weights[:-1])
    got = minkowski_combine(weights, sets)
    oracle = brute_minkowski(weights, sets)
    assert len(got.points) == len(oracle)
    assert all(abs(g[0] - o[0]) <= 1e-9 for g, o in zip(got.points, oracle))


def reference_midpoint(w, a):
    """Oracle: ``minkowski_combine([w, w], [a, a])`` enumerating every ordered pair."""
    first = reference_dedup_sorted([tuple(0.0 + w * c for c in q) for q in a.points])
    return reference_dedup_sorted(
        [tuple(pc + w * qc for pc, qc in zip(p, q)) for p in first for q in a.points]
    )


signed_coord = st.one_of(coord, near_coord, st.sampled_from((0.0, -0.0)))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((1, 2)).flatmap(
        lambda d: st.lists(st.tuples(*[signed_coord] * d), min_size=1, max_size=12)
    ),
    # a negative weight reverses the order of the scaled points
    st.one_of(st.just(0.5), st.floats(0.01, 1.0), st.floats(-1.0, -0.01)),
)
@example(pts=[(-0.0, 1.0), (0.0, -0.0), (1.0, -0.0), (-0.0, -1.0)], w=0.5)
# halving brings the first two within DEDUP_RESOLUTION: every ordered pair is enumerated
@example(pts=[(0.0,), (1.5 * DEDUP_RESOLUTION,), (1.0,)], w=0.5)
def test_symmetric_midpoint_matches_full_enumeration(pts, w):
    a = FinitePointSet.of(pts)
    got = minkowski_combine([w, w], [a, a])
    assert bits(got.points) == bits(reference_midpoint(w, a))
    # an equal set built separately takes the same path
    assert bits(minkowski_combine([w, w], [a, FinitePointSet.of(pts)]).points) == bits(got.points)
    if len(_dedup_sorted([tuple(0.0 + w * c for c in q) for q in a.points])) == len(a):
        # with no merge in the first step, the direct enumeration gives the same set
        assert got.points == tuple(brute_minkowski([w, w], [a, a]))


def test_minkowski_cap_raises():
    a = FinitePointSet.of([(float(i), float(i * i)) for i in range(8)])
    with pytest.raises(EnumerationCapError):
        minkowski_combine([0.25] * 4, [a] * 4, cap=100)


# ---------------------------------------------------------------------------
# polytope combinations


def test_interval_combine_matches_interval_arithmetic():
    got = polytope_combine([0.5, 0.5], [ConvexPolytope.interval(0, 2), ConvexPolytope.interval(4, 4)])
    assert (got.lo, got.hi) == (2.0, 3.0)


# intervals with one vertex (equal endpoints, or closer than DEDUP_RESOLUTION)
# as well as two
intervals = st.builds(
    lambda lo, width: ConvexPolytope.interval(lo, lo + width),
    coord,
    st.sampled_from((0.0, DEDUP_RESOLUTION / 2, 1e-9, 0.5, 7.25)) | st.floats(0, 20),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 1.0), intervals), min_size=1, max_size=6))
def test_interval_distance_and_combination_match_the_endpoint_formulas(terms):
    # the d=1 paths read the vertices once; they must give the bits of the
    # formulas on ``lo`` and ``hi``
    raw = [w for w, _ in terms]
    weights = [w / math.fsum(raw) for w in raw]
    polys = [p for _, p in terms]
    got = polytope_combine(weights, polys)
    assert got == ConvexPolytope.interval(
        math.fsum(w * p.lo for w, p in zip(weights, polys)),
        math.fsum(w * p.hi for w, p in zip(weights, polys)),
    )
    for a in polys:
        for b in (got, *polys):
            want = max(abs(a.lo - b.lo), abs(a.hi - b.hi))
            assert hausdorff_distance(a, b).hex() == want.hex()


def test_hausdorff_distance_rejects_operands_of_different_dimensions():
    interval = ConvexPolytope.interval(0.0, 1.0)
    triangle = convex_hull(FinitePointSet.of([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]))
    points = FinitePointSet.of([(0.0,), (1.0,)])
    for a, b in ((interval, triangle), (triangle, interval), (points, triangle),
                 (triangle, points)):
        with pytest.raises(ValueError, match="operands must share one dimension"):
            hausdorff_distance(a, b)


def test_point_distance_rejects_points_of_different_dimensions():
    assert _point_dist((0.0, 0.0), (3.0, 4.0)) == 5.0
    # zip would truncate to the shorter point and call these 0.0 apart
    with pytest.raises(ValueError):
        _point_dist((1.0, 2.0), (1.0,))
    with pytest.raises(ValueError):
        _point_dist((1.0,), (1.0, 2.0))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.tuples(point1, point1),
    st.tuples(point2, point2),
    st.tuples(st.tuples(coord, coord, coord), st.tuples(coord, coord, coord)),
))
def test_point_distance_gives_the_bits_of_hypot(pair):
    a, b = pair
    assert _point_dist(a, b).hex() == math.hypot(*(x - y for x, y in zip(a, b))).hex()


def test_combining_identical_intervals_is_identity():
    box = ConvexPolytope.interval(0, 1)
    got = polytope_combine([0.5, 0.5], [box, box])
    assert (got.lo, got.hi) == (0.0, 1.0)


def test_square_translation_average():
    square = convex_hull(FinitePointSet.of([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]))
    def moved(dx):
        return convex_hull(FinitePointSet.of([(x + dx, y) for x, y in square.vertices]))

    got = polytope_combine([0.5, 0.5], [square, moved(2.0)])
    assert got.vertices == moved(1.0).vertices


@settings(max_examples=80, deadline=None)
@given(
    st.lists(point2, min_size=1, max_size=7),
    st.lists(point2, min_size=1, max_size=7),
)
def test_pairwise_sum_oracle(p_pts, q_pts):
    p = convex_hull(FinitePointSet.of(p_pts))
    q = convex_hull(FinitePointSet.of(q_pts))
    got = polytope_combine([1.0, 1.0], [p, q])
    oracle = convex_hull(
        FinitePointSet.of([(a[0] + b[0], a[1] + b[1]) for a in p.vertices for b in q.vertices])
    )
    assert hausdorff_distance(got, oracle) <= 1e-9
    assert len(got.vertices) <= len(p.vertices) + len(q.vertices)
    assert bits(polytope_combine([1.0, 1.0], [q, p]).vertices) == bits(got.vertices)


def test_far_vertex_does_not_shift_the_combination():
    # each vertex of the combination is one weighted vertex sum, so the small
    # vertices keep their own rounding next to one at x = 5e299
    p = convex_hull(FinitePointSet.of([(-2.7, 0.0), (1.19, -0.0), (1e300, 1.0), (1.5, 1.0)]))
    q = convex_hull(FinitePointSet.of([(4.0, -1.0), (5.0, 0.5), (3.0, 2.0)]))
    got = polytope_combine([0.5, 0.5], [p, q])
    oracle = convex_hull(FinitePointSet.of(
        [(0.5 * a[0] + 0.5 * b[0], 0.5 * a[1] + 0.5 * b[1]) for a in p.vertices for b in q.vertices]
    ))
    assert got.vertices == oracle.vertices
    assert (2.25, 1.5) in got.vertices and hausdorff_distance(got, oracle) == 0.0


@pytest.mark.parametrize("ends", [
    ((0.0, 5e-324), (2.0, 0.0)),
    ((0.0, -5e-324), (-2.0, 0.0)),  # the first segment reflected through the origin
], ids=["subnormal-rise", "subnormal-drop"])
def test_segment_with_a_subnormal_slope_plus_a_point_is_itself(ends):
    # the edge that goes down by a subnormal has atan2 -0.0, not 2pi
    origin = ConvexPolytope(((0.0, 0.0),))
    segment = convex_hull(FinitePointSet.of(ends))
    assert polytope_combine([1.0, 1.0], [origin, segment]).vertices == segment.vertices
    assert polytope_combine([1.0, 1.0], [segment, origin]).vertices == segment.vertices


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(point2, min_size=1, max_size=4), min_size=2, max_size=3),
    st.randoms(use_true_random=False),
)
def test_hull_commutes_with_minkowski(groups, rng):
    # hull(selection combination) equals the polytope combination of hulls
    sets = [FinitePointSet.of(g) for g in groups]
    raw = [rng.uniform(0.1, 1.0) for _ in sets]
    weights = [w / sum(raw) for w in raw]
    weights[-1] = 1.0 - sum(weights[:-1])
    lhs = convex_hull(minkowski_combine(weights, sets))
    rhs = polytope_combine(weights, [convex_hull(s) for s in sets])
    assert hausdorff_distance(lhs, rhs) <= 1e-9


# ---------------------------------------------------------------------------
# hausdorff distance


def test_hausdorff_trivial_cases():
    assert hausdorff_distance(FinitePointSet.of([(0.0,)]), FinitePointSet.of([(1.0,)])) == 1.0
    assert hausdorff_distance(FinitePointSet.of([(0.0,), (2.0,)]), FinitePointSet.of([(1.0,)])) == 1.0
    box = ConvexPolytope.interval(0, 1)
    assert hausdorff_distance(box, box) == 0.0


def test_hausdorff_mixed_interval_vs_grid():
    grid = FinitePointSet.of([(k / 4,) for k in range(5)])
    assert hausdorff_distance(grid, ConvexPolytope.interval(0, 1)) == pytest.approx(1 / 8, abs=1e-15)
    assert hausdorff_distance(ConvexPolytope.interval(0, 1), grid) == pytest.approx(1 / 8, abs=1e-15)


def test_hausdorff_mixed_degenerate_polytope():
    dot = ConvexPolytope(((0.0,),))
    s = FinitePointSet.of([(0.0,), (3.0,)])
    assert hausdorff_distance(s, dot) == 3.0


def reference_sites_to_polytope(sites, poly):
    """Oracle: the sites' distance to the polytope before ``_sites_to_interval``
    and the containment pass, one ``point_to_polytope`` per site."""
    return nan_max(point_to_polytope(p, poly) for p in sites.points)


def reference_interval_to_sites_1d(lo, hi, sites):
    """Oracle: the d=1 covering radius before it bisected the sorted sites
    for each endpoint's nearest site, or walked them with the candidates."""
    xs = sorted(sites)
    best = max(min(abs(lo - s) for s in xs), min(abs(hi - s) for s in xs))
    for left, right in zip(xs, xs[1:]):
        mid = 0.5 * (left + right)
        if lo <= mid <= hi:
            best = max(best, min(mid - left, right - mid))
    return best


def mixed_cases_1d():
    """Intervals (a point among them) against 1-3 sites inside, outside and
    on an endpoint, signed zeros at a zero endpoint, lattice sites, a wide
    random set, and sites kept as given (both zeros, infinities)."""
    rng = random.Random(29)
    inf = math.inf
    polys = [ConvexPolytope.interval(0, 1), ConvexPolytope.interval(-1, 0.0), ConvexPolytope.interval(-0.0, 1),
             ConvexPolytope.interval(0.5, 0.5), ConvexPolytope.interval(0.0, 0.0), ConvexPolytope.interval(-0.0, -0.0),
             ConvexPolytope.interval(-2.5, 3.75)]
    groups = [[(0.5,)], [(0.0,)], [(-0.0,)], [(1.0,)], [(2.0,)], [(-3.0,)], [(-0.5,), (-0.0,)], [(-0.0,), (0.5,)],
              [(0.0,), (1.0,)], [(-1.0,), (0.0,)], [(-2.0,), (0.25,), (4.0,)], [(0.1,), (0.2,), (0.9,)],
              [(-5.0,), (5.0,)], [(k / 4,) for k in range(-12, 17)],
              [(rng.uniform(-4, 4),) for _ in range(60)]]
    sets = [FinitePointSet.of(g) for g in groups]
    sets += [FinitePointSet(((-0.0,), (0.0,))), FinitePointSet(((0.0,), (-0.0,))),
             FinitePointSet(((-inf,), (0.5,))), FinitePointSet(((0.5,), (inf,))), FinitePointSet(((-inf,), (inf,)))]
    return [(sites, poly) for sites in sets for poly in polys]


def mixed_cases_2d():
    """A point, segments and polygons against 1-3 sites inside, outside, at
    a vertex and on an edge, a -0.0 site at a 0.0 vertex, lattice
    (cocircular) sites, and random sets of 50 points."""
    rng = random.Random(30)
    triangle = convex_hull(FinitePointSet.of([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]))
    square = convex_hull(FinitePointSet.of([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]))
    polys = [
        ConvexPolytope(((0.0, 0.0),)),
        ConvexPolytope(((-0.0, 0.0),)),
        convex_hull(FinitePointSet.of([(0.0, 0.0), (1.0, 0.0)])),
        convex_hull(FinitePointSet.of([(-1.0, -1.0), (2.0, 0.5)])),
        triangle,
        square,
        convex_hull(FinitePointSet.of([(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(9)])),
    ]
    groups = [
        [(0.25, 0.25)], [(0.0, 0.0)], [(-0.0, 0.0)], [(0.0, -0.0)], [(-0.0, -0.0)], [(0.5, 0.0)], [(1.0, 1.0)],
        [(2.0, -3.0)], [(0.5, 0.5), (0.0, 0.5)], [(-0.0, 0.5), (3.0, 3.0)], [(0.1, 0.1), (0.2, 0.3), (5.0, 0.0)],
        [(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)], [(0.5, -0.0), (1.0, -0.0), (-0.0, 1.0)],
        [(i / 2, j / 2) for i in range(-4, 5) for j in range(-4, 5)],
        [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(50)],
        [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(50)],
    ]
    sets = [FinitePointSet.of(g) for g in groups]
    space = compact_sets_space(dim=2)
    sets.append(self_combination(space, FinitePointSet.of(triangle.vertices), 8))
    return [(sites, poly) for sites in sets for poly in polys]


def test_sites_to_polytope_matches_per_site_oracle():
    for sites, poly in mixed_cases_1d():
        xs = [x for (x,) in sites.points]
        want = reference_sites_to_polytope(sites, poly)
        assert _sites_to_interval(xs, poly.lo, poly.hi).hex() == want.hex(), (sites, poly)
    for sites, poly in mixed_cases_2d():
        want = reference_sites_to_polytope(sites, poly)
        assert _to_polytope(sites, poly).hex() == want.hex(), (sites, poly)
        assert hausdorff_distance(sites, poly).hex() == nan_max(want, _to_sites(poly, sites)).hex()


@np.errstate(invalid="ignore")
def test_sites_to_polytope_keeps_a_nan_site():
    # in d=1 a NaN site, or sites at both infinities, make the sum of the
    # sites NaN and take the per-site loop; in d=2 a NaN site's cross
    # products are NaN, so it reads as inside the polygon and outside a segment
    nan = math.nan
    for sites, poly in (
        (FinitePointSet(((0.5,), (nan,))), ConvexPolytope.interval(0, 1)),
        (FinitePointSet(((nan,), (5.0,))), ConvexPolytope.interval(0, 1)),
        (FinitePointSet(((-math.inf,), (math.inf,), (0.0,))), ConvexPolytope.interval(0, 1)),
    ):
        xs = [x for (x,) in sites.points]
        assert _sites_to_interval(xs, poly.lo, poly.hi).hex() == reference_sites_to_polytope(sites, poly).hex()
    triangle = convex_hull(FinitePointSet.of([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]))
    segment = convex_hull(FinitePointSet.of([(0.0, 0.0), (1.0, 0.0)]))
    sites = FinitePointSet(tuple((k / 8, k / 16) for k in range(60)) + ((nan, 0.5),))
    for poly in (triangle, segment):
        assert _to_polytope(sites, poly).hex() == reference_sites_to_polytope(sites, poly).hex()


def test_interval_to_sites_1d_matches_oracle():
    for sites, poly in mixed_cases_1d():
        xs = [x for (x,) in sites.points]
        want = reference_interval_to_sites_1d(poly.lo, poly.hi, xs)
        assert _to_sites(poly, sites).hex() == want.hex(), (sites, poly)


def test_interval_to_sites_1d_midpoint_does_not_overflow():
    # 1e308 + 1.7e308 overflows; the half-gap is that of the halved operands, doubled
    big = (ConvexPolytope.interval(1e308, 1.7e308), FinitePointSet.of([(1e308,), (1.7e308,)]))
    half = (ConvexPolytope.interval(0.5e308, 0.85e308), FinitePointSet.of([(0.5e308,), (0.85e308,)]))
    want = 2.0 * hausdorff_distance(*half)
    assert want == pytest.approx(3.5e307, rel=1e-15)
    assert hausdorff_distance(*big) == hausdorff_distance(*big[::-1]) == want


def test_hausdorff_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        hausdorff_distance(FinitePointSet.of([(0.0,)]), FinitePointSet.of([(0.0, 0.0)]))


def reference_polygon_contains(poly, p):
    """Oracle: the containment test of ``point_to_polytope`` before its one
    edge loop.  Below three vertices nothing is inside, and a NaN cross
    product reads as inside."""
    return len(poly.vertices) >= 3 and not any(_cross(a, b, p) < 0.0 for a, b in poly.edges)


def reference_point_segment_distance(p, a, b):
    """Oracle: the distance from ``p`` to segment ``ab`` before
    ``point_to_polytope`` read ``ConvexPolytope.edge_spans``."""
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    if denom == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / denom
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def test_contains_all_matches_polygon_contains():
    rng = random.Random(5)
    for _ in range(10):
        poly = convex_hull(
            FinitePointSet.of([(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(6)])
        )
        # grid points, the vertices and edge midpoints sit on or next to the boundary
        verts = poly.vertices
        on_edges = [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
                    for a, b in zip(verts, verts[1:] + verts[:1])]
        pts = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(300)] + list(verts) + on_edges
        assert _in_polygon(poly, pts) == [p for p in pts if reference_polygon_contains(poly, p)]
    segment = ConvexPolytope(((0.0, 0.0), (1.0, 1.0)))
    assert _in_polygon(segment, [(0.5, 0.5)]) == []


def test_edges_walk_the_boundary_in_vertex_order():
    a, b, c = (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)
    assert convex_hull(FinitePointSet.of([a])).edges == ()
    assert convex_hull(FinitePointSet.of([b, a])).edges == ((a, b),)
    triangle = convex_hull(FinitePointSet.of([c, b, a]))
    assert triangle.vertices == (a, b, c)
    assert triangle.edges == ((a, b), (b, c), (c, a))


def reference_point_to_polytope(p, poly):
    """Oracle: ``point_to_polytope`` before it read ``ConvexPolytope.edges``,
    with its own segment case and index walk."""
    if poly.dim == 1:
        x = p[0]
        return max(poly.lo - x, x - poly.hi, 0.0)
    verts = poly.vertices
    if len(verts) == 1:
        return _point_dist(p, verts[0])
    if len(verts) == 2:
        return reference_point_segment_distance(p, verts[0], verts[1])
    n = len(verts)
    if not any(_cross(verts[i], verts[(i + 1) % n], p) < 0.0 for i in range(n)):
        return 0.0
    return min(reference_point_segment_distance(p, verts[i], verts[(i + 1) % n]) for i in range(n))


def reference_edge_normals(p):
    """Oracle: ``embedding.edge_normals`` before it read ``ConvexPolytope.edges``."""
    verts = p.vertices
    if len(verts) == 1:
        return ()
    if len(verts) == 2:
        (ax, ay), (bx, by) = verts
        ex, ey = bx - ax, by - ay
        norm = math.hypot(ex, ey)
        return ((ey / norm, -ex / norm), (-ey / norm, ex / norm))
    out = []
    n = len(verts)
    for i in range(n):
        (ax, ay), (bx, by) = verts[i], verts[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        norm = math.hypot(ex, ey)
        out.append((ey / norm, -ex / norm))
    return tuple(out)


# lattice coordinates with both signed zeros, so that edges and normals carry -0.0
signed_zero_coord = st.one_of(st.integers(-4, 4).map(lambda k: k / 2), st.sampled_from((0.0, -0.0)))
boundary_point = st.one_of(point2, st.tuples(signed_zero_coord, signed_zero_coord))
# a polygon, a segment or a point
boundary_shape = st.one_of(
    st.lists(boundary_point, min_size=1, max_size=8),
    st.lists(boundary_point, min_size=1, max_size=2),
    st.lists(st.tuples(signed_zero_coord, signed_zero_coord), min_size=1, max_size=3),
).map(lambda pts: convex_hull(FinitePointSet.of(pts)))


@settings(max_examples=200, deadline=None)
@given(boundary_shape, boundary_shape,
       st.lists(st.one_of(boundary_point, st.just((math.nan, 0.0))), min_size=1, max_size=6))
@example(ConvexPolytope(((-0.0, 0.0), (0.0, 1.0))), ConvexPolytope(((0.0, -0.0),)), [(-0.0, 0.5)])
@example(ConvexPolytope(((0.0, 5e-324), (2.0, 0.0))), ConvexPolytope(((0.0, 0.0),)), [(1.0, 0.0)])
def test_boundary_walks_match_their_index_walks(p, q, queries):
    for query in queries + list(q.vertices):
        got = point_to_polytope(query, p)
        assert got.hex() == reference_point_to_polytope(query, p).hex(), (query, p)
    assert bits(edge_normals(p)) == bits(reference_edge_normals(p))


def covering_radius(poly, sites):
    """The d=2 polytope's directed distance to the point set, measured as
    ``hausdorff_distance`` measures it: on the operands scaled into the
    float band."""
    e, poly, sites = _in_float_band(poly, sites)
    return math.ldexp(_to_sites(poly, sites), e)


def _grid_covering_radius(poly, sites, k=220):
    arr = np.array(poly.vertices)
    lo, hi = arr.min(0), arr.max(0)
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], k), np.linspace(lo[1], hi[1], k))
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    for (ox, oy), (ax, ay) in poly.edges:  # the polygons here have three vertices or more
        pts = pts[~((ax - ox) * (pts[:, 1] - oy) - (ay - oy) * (pts[:, 0] - ox) < 0.0)]
    dists = np.sqrt(((pts[:, None, :] - np.asarray(sites.points)[None, :, :]) ** 2).sum(2)).min(1)
    return float(dists.max()) if len(dists) else 0.0


def test_covering_radius_against_grid_oracle():
    rng = random.Random(31)
    for _ in range(25):
        poly = convex_hull(
            FinitePointSet.of([(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(6)])
        )
        sites = FinitePointSet.of(
            [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(rng.randint(1, 10))]
        )
        exact = covering_radius(poly, sites)
        grid = _grid_covering_radius(poly, sites)
        assert exact >= grid - 1e-9
        assert exact <= grid + 0.2  # grid resolution slack


def brute_covering_radius(poly, sites, chunk=1 << 16):
    """Oracle: the nearest-site distance maximized over every polygon vertex,
    every crossing of a site-pair bisector with a polygon edge, and every
    circumcenter of a site triple that lies in the polygon.  O(m^3) in the
    site count; the candidate formulas are those of ``ccspace.geometry``,
    evaluated on arrays of all pairs and all triples at once.
    """
    verts = poly.vertices
    pts = np.asarray(sites.points)
    cands = [np.asarray(verts, dtype=float)]
    if len(pts) >= 2 and len(verts) >= 2:
        n = len(verts)
        edges = [(verts[0], verts[1])] if n == 2 else [(verts[k], verts[(k + 1) % n]) for k in range(n)]
        i, j = np.triu_indices(len(pts), 1)
        (sx, sy), (tx, ty) = pts[i].T, pts[j].T
        mx, my = 0.5 * (sx + tx), 0.5 * (sy + ty)
        dx, dy = tx - sx, ty - sy
        for a, b in edges:
            ex, ey = b[0] - a[0], b[1] - a[1]
            denom = ex * dx + ey * dy
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                t = ((mx - a[0]) * dx + (my - a[1]) * dy) / denom
            hit = (denom != 0.0) & (0.0 <= t) & (t <= 1.0)
            cands.append(np.column_stack([a[0] + t[hit] * ex, a[1] + t[hit] * ey]))
        triples = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(len(pts)), 3)), dtype=int
        ).reshape(-1, 3)
        for start in range(0, len(triples) if n >= 3 else 0, chunk):
            idx = triples[start:start + chunk]
            a, b, c = pts[idx[:, 0]], pts[idx[:, 1]], pts[idx[:, 2]]
            d = 2.0 * (a[:, 0] * (b[:, 1] - c[:, 1]) + b[:, 0] * (c[:, 1] - a[:, 1]) + c[:, 0] * (a[:, 1] - b[:, 1]))
            keep = np.abs(d) > 1e-14
            a, b, c, d = a[keep], b[keep], c[keep], d[keep]
            a2, b2, c2 = (a * a).sum(1), (b * b).sum(1), (c * c).sum(1)
            ux = (a2 * (b[:, 1] - c[:, 1]) + b2 * (c[:, 1] - a[:, 1]) + c2 * (a[:, 1] - b[:, 1])) / d
            uy = (a2 * (c[:, 0] - b[:, 0]) + b2 * (a[:, 0] - c[:, 0]) + c2 * (b[:, 0] - a[:, 0])) / d
            inside = np.ones(len(ux), dtype=bool)
            for k in range(n):
                (ox, oy), (px, py) = verts[k], verts[(k + 1) % n]
                inside &= (px - ox) * (uy - oy) - (py - oy) * (ux - ox) >= 0.0
            cands.append(np.column_stack([ux[inside], uy[inside]]))
    carr = np.concatenate(cands)
    best = 0.0
    rows = max(1, chunk // len(pts))
    for start in range(0, len(carr), rows):
        block = carr[start:start + rows]
        dx = block[:, 0:1] - pts[:, 0]
        dy = block[:, 1:2] - pts[:, 1]
        best = max(best, float(np.sqrt(dx * dx + dy * dy).min(axis=1).max()))
    return best


def site_layout(kind, m, rng):
    """``m`` distinct sites: uniform, exactly collinear, or on a half-integer lattice."""
    if kind == "random":
        pts = {(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(m)}
    elif kind == "collinear":
        x0, step = rng.uniform(-5, 0), rng.uniform(0.01, 0.1)
        pts = {(x0 + k * step, 0.5) for k in range(m)}
    else:
        cells = [(i / 2, j / 2) for i in range(-8, 9) for j in range(-8, 9)]
        pts = set(rng.sample(cells, m))
    return FinitePointSet.of(sorted(pts))


def polytope_shapes(rng):
    """A polygon, a segment and a single point, each as a ``ConvexPolytope``."""
    polygon = convex_hull(FinitePointSet.of([(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(7)]))
    segment = convex_hull(FinitePointSet.of([(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(2)]))
    point = convex_hull(FinitePointSet.of([(rng.uniform(-5, 5), rng.uniform(-5, 5))]))
    return polygon, segment, point


@pytest.mark.parametrize("kind", ["random", "collinear", "lattice"])
def test_covering_radius_matches_bruteforce_oracle(kind):
    rng = random.Random(kind)
    for m in (1, 2, 3, 4, 7, 12, 25, 60, 150):
        sites = site_layout(kind, m, rng)
        for poly in polytope_shapes(rng):
            got = covering_radius(poly, sites)
            assert got == pytest.approx(brute_covering_radius(poly, sites), abs=1e-12), (m, poly)


def reference_clipped_cell_labels(poly, n_edges, sites):
    """Oracle: the clipping loop before the bucket grid, which orders every
    site's neighbours with an argsort of the full m x m distance matrix."""
    pts = sites.tolist()
    diff = sites[:, None, :] - sites[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable").tolist()
    d2 = d2.tolist()
    pairs, triples = set(), set()
    for i, (sx, sy) in enumerate(pts):
        cell = [(x, y, ~(k % n_edges)) for k, (x, y) in enumerate(poly.vertices)]
        for j in order[i][1:]:
            reach2 = max((x - sx) * (x - sx) + (y - sy) * (y - sy) for x, y, _ in cell)
            if d2[i][j] > 4.0 * reach2:
                break
            tx, ty = pts[j]
            mx, my = 0.5 * (sx + tx), 0.5 * (sy + ty)
            dx, dy = tx - sx, ty - sy
            clipped = []
            px, py, plabel = cell[-1]
            gp = (px - mx) * dx + (py - my) * dy
            for x, y, label in cell:
                g = (x - mx) * dx + (y - my) * dy
                if (g <= 0.0) != (gp <= 0.0):
                    t = gp / (gp - g)
                    clipped.append((px + t * (x - px), py + t * (y - py), plabel if g <= 0.0 else j))
                if g <= 0.0:
                    clipped.append((x, y, label))
                px, py, plabel, gp = x, y, label, g
            cell = clipped
            if not cell:
                break
        for (_, _, a), (_, _, b) in zip(cell[-1:] + cell[:-1], cell):
            if a >= 0 and b >= 0 and a != b:
                triples.add(tuple(sorted((i, a, b))))
            elif (a >= 0) != (b >= 0):
                j, e = (a, ~b) if a >= 0 else (b, ~a)
                pairs.add((min(i, j), max(i, j), e))
    return pairs, triples


def assert_labels_match_reference(poly, sites):
    n_edges = len(poly.edges)
    got = _clipped_cell_labels(poly, sites.points)
    assert got == reference_clipped_cell_labels(poly, n_edges, np.asarray(sites.points)), (len(sites), poly)


def assert_neighbour_order_matches_argsort(points):
    """Every site's ``_nearest_first`` neighbour stream holds each site once,
    in the order of a stable argsort of its row of the full squared-distance
    matrix, with the same values.  ``points`` may be unsorted and repeat."""
    arr = np.asarray(points, dtype=float)
    diff = arr[:, None, :] - arr[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")
    streams = list(_nearest_first(points))
    assert len(streams) == len(points)
    for i, neighbours in enumerate(streams):
        got = list(neighbours)
        assert sorted(j for _, j in got) == list(range(len(points))), i
        assert got == [(d2[i, j], j) for j in order[i].tolist()], i


@pytest.mark.parametrize("kind", ["random", "collinear", "lattice"])
def test_nearest_first_orders_neighbours_like_a_stable_argsort(kind):
    rng = random.Random(kind)
    for m in (1, 2, 3, 4, 7, 12, 25, 60, 150, 289):
        assert_neighbour_order_matches_argsort(site_layout(kind, m, rng).points)


@pytest.mark.parametrize("kind", ["random", "collinear", "lattice"])
def test_clipped_cell_labels_match_reference(kind):
    rng = random.Random(kind)
    for m in (2, 3, 4, 7, 12, 25, 60, 150, 289):
        sites = site_layout(kind, m, rng)
        polygon, segment, _ = polytope_shapes(rng)
        for poly in (polygon, segment, convex_hull(sites)):
            if len(poly.vertices) >= 2:
                assert_labels_match_reference(poly, sites)


def test_clipped_cell_labels_match_reference_on_triangle_self_combinations():
    space = compact_sets_space(dim=2)
    triangle = convexify_point("compact-sets", "two-point", dim=2)
    for n in (2, 5, 9, 16, 24):  # 6 to 325 sites
        sites = self_combination(space, triangle, n)
        assert_labels_match_reference(convex_hull(triangle), sites)
        assert_neighbour_order_matches_argsort(sites.points)


@np.errstate(over="ignore", invalid="ignore")
def test_covering_radius_past_the_float_range():
    # squared distances overflow, so the neighbour search must still end;
    # the radius is measured on the operands scaled into the float band, and
    # each want is the radius of the same operands scaled down by a power of two
    poly = convex_hull(FinitePointSet.of([(-1e308, -1.0), (1.0, -1.0), (0.0, 1e308)]))
    sites = FinitePointSet.of([(-1e308, -1e308), (1e308, 1e308), (0.0, 1.0), (1e308, -1e308)])
    assert_labels_match_reference(poly, sites)
    assert_neighbour_order_matches_argsort(sites.points)
    assert covering_radius(poly, sites) == 1e308
    poly = convex_hull(FinitePointSet.of([(2.67e154, 9.54e154), (3.73e154, -4.01e154), (7.2e154, -3.19e153)]))
    sites = FinitePointSet.of([(6.8e-146, 7.8e154), (9.0e-146, -3.7e154)])
    assert_labels_match_reference(poly, sites)
    assert_neighbour_order_matches_argsort(sites.points)
    assert covering_radius(poly, sites) == 8.391237818143997e154
    poly = convex_hull(FinitePointSet.of([(2.9e149, 4.6e149), (-7.0e149, -2.6e149), (8.4e149, -9.2e148)]))
    sites = FinitePointSet.of([(8.8e-151, 3.6e149), (-2.6e-151, -4.1e149), (3.5e-151, -7.9e149),
                               (8.9e-151, 3.5e149), (7.2e148, 3.3e149), (1.7e148, 4.4e149)])
    assert_labels_match_reference(poly, sites)
    assert_neighbour_order_matches_argsort(sites.points)
    assert covering_radius(poly, sites) == 8.763036003577756e149
    # the covering radius is the mixed Hausdorff distance in both argument orders
    assert hausdorff_distance(sites, poly) == hausdorff_distance(poly, sites) == 8.763036003577756e149


@pytest.mark.parametrize("k", [-35, -30, -26, 0, 30])
def test_covering_radius_of_a_hexagon_by_its_vertices_at_every_scale(k):
    # the hull of a regular hexagon of circumradius 2**k is covered by its
    # vertices at radius 2**k, from the center; a circumcenter test that
    # reads a small determinant as collinear loses the center below 2**-26
    base = FinitePointSet.of([(math.cos(j * math.pi / 3), math.sin(j * math.pi / 3)) for j in range(6)])
    sites = FinitePointSet(scaled_points(base.points, k))
    hull = ConvexPolytope(scaled_points(convex_hull(base).vertices, k))
    assert math.ldexp(covering_radius(hull, sites), -k) == pytest.approx(1.0, rel=4e-16)


def reference_farthest_nearest(queries, sites):
    """Oracle: the largest over ``queries`` of the least ``math.hypot``
    distance to a site, over every pair."""
    return max(min(math.hypot(x - u, y - v) for u, v in sites) for x, y in queries)


def reference_hausdorff_hypot(a, b):
    """Oracle: the d=2 Hausdorff distance of two point sets over every pair,
    each measured with ``math.hypot``."""
    return max(reference_farthest_nearest(a.points, b.points), reference_farthest_nearest(b.points, a.points))


def reference_hausdorff_sets(a, b):
    """The full-matrix Hausdorff distance of two point sets from squared
    distances: NaN or inf wherever a coordinate is not finite, which bounds
    the sweep's NaN rule from below."""
    diff = np.asarray(a.points)[:, None, :] - np.asarray(b.points)[None, :, :]
    dmat = np.sqrt((diff * diff).sum(axis=2))
    return float(max(dmat.min(axis=1).max(), dmat.min(axis=0).max()))


def assert_sweep_matches_hypot_oracle(x, y):
    """On finite sets, both directions and the Hausdorff distance carry the
    pairwise ``hypot`` oracle's bits.  A coordinate that is not finite makes
    them NaN, and the squared-distance matrix is then not finite either."""
    got = (_farthest_nearest(x.points, y.points), _to_sites(x, y), hausdorff_distance(x, y))
    if all(map(math.isfinite, itertools.chain(*x.points, *y.points))):
        want = (reference_farthest_nearest(x.points, y.points), reference_hausdorff_hypot(x, y))
        assert [v.hex() for v in got] == [want[0].hex(), want[0].hex(), want[1].hex()], (x, y)
    else:
        assert all(map(math.isnan, got)), (x, y)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not math.isfinite(reference_hausdorff_sets(x, y)), (x, y)


def test_hausdorff_sets_2d_sweep_matches_pairwise_hypot():
    pairs = [(x, y) for a, b in hausdorff_loop_cases() for x, y in ((a, b), (b, a)) if a.dim == 2]
    for x, y in pairs:
        assert_sweep_matches_hypot_oracle(x, y)
    # a query dropped early, ties in x and y, and candidates that sit in no order
    rng = random.Random(7)
    sites = FinitePointSet(tuple((rng.randint(-6, 6) / 2, rng.uniform(-5, 5)) for _ in range(300)))
    queries = FinitePointSet(tuple((rng.uniform(-5, 5), rng.randint(-6, 6) / 2) for _ in range(200)))
    assert_sweep_matches_hypot_oracle(queries, sites)


lattice_coord = st.integers(-8, 8).map(lambda k: k / 2)
# lattice ties, small floats, and any finite float (differences may overflow)
wide_coord = st.one_of(coord, lattice_coord, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(wide_coord, wide_coord), min_size=1, max_size=25),
       st.lists(st.tuples(wide_coord, wide_coord), min_size=1, max_size=25))
@example([(0.0, 0.0)], [(1e200, 0.0)])
@example([(0.0, 0.0)], [(1e-170, 0.0)])
@example([(-1.7e308, 0.0)], [(1.7e308, 1.0), (1.7e308, -1.0)])
def test_hausdorff_sets_2d_sweep_matches_pairwise_hypot_hypothesis(a, b):
    # kept as drawn: unsorted, with repeated points
    assert_sweep_matches_hypot_oracle(FinitePointSet(tuple(a)), FinitePointSet(tuple(b)))


# coordinates that scale by 2**-600 without a subnormal: zero, or at least 2**-60
twin_coord = st.one_of(lattice_coord, st.floats(-10, 10, allow_subnormal=False).map(
    lambda x: x if abs(x) >= 2.0 ** -60 else 0.0))


def scaled_points(points, k):
    return tuple(tuple(math.ldexp(c, k) for c in p) for p in points)


@pytest.mark.parametrize("k", [-600, -40, 40, 600])
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.data())
def test_hausdorff_distance_scales_with_its_operands_hypothesis(k, dim, data):
    # scaling by 2**k is exact, so the distance of the scaled twins is the
    # distance scaled by 2**k, bit for bit; the twins are built with the
    # constructors, so that no deduplication at an absolute resolution
    # merges their points
    def points(min_size, max_size):
        return data.draw(st.lists(st.tuples(*[twin_coord] * dim), min_size=min_size, max_size=max_size))

    a, b = FinitePointSet.of(points(1, 12)), FinitePointSet.of(points(1, 12))
    poly, other = convex_hull(FinitePointSet.of(points(1, 7))), convex_hull(FinitePointSet.of(points(1, 7)))
    twin_a, twin_b = FinitePointSet(scaled_points(a.points, k)), FinitePointSet(scaled_points(b.points, k))
    twin_poly, twin_other = (ConvexPolytope(scaled_points(p.vertices, k)) for p in (poly, other))
    for x, y, twin_x, twin_y in ((a, b, twin_a, twin_b), (a, poly, twin_a, twin_poly),
                                 (poly, other, twin_poly, twin_other)):
        want = math.ldexp(hausdorff_distance(x, y), k).hex()
        assert hausdorff_distance(twin_x, twin_y).hex() == want
        assert hausdorff_distance(twin_y, twin_x).hex() == want


def test_hausdorff_distance_past_the_largest_float_is_inf():
    # the true distance, about 3.4e308, rounds to inf in every pairing; the
    # scaled measure must not raise on its way back up
    left, right = [(-1.7e308, 0.0), (-1.7e308, 1.0)], [(1.7e308, 0.0), (1.7e308, 1.0)]
    for a in (FinitePointSet.of(left), convex_hull(FinitePointSet.of(left)), FinitePointSet.of(left[:1])):
        for b in (FinitePointSet.of(right), convex_hull(FinitePointSet.of(right)), ConvexPolytope(tuple(right[:1]))):
            assert hausdorff_distance(a, b) == math.inf == hausdorff_distance(b, a), (a, b)


def test_hausdorff_distance_2d_is_nan_at_a_coordinate_that_is_not_finite():
    # only the dataclass constructors, or an overflowing combination, make
    # such operands; a NaN vertex must not read as inside, an infinite one
    # must not give inf, and neither argument order may drop the NaN
    nan, inf = math.nan, math.inf
    triangle = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    finite = [convex_hull(FinitePointSet.of(triangle)), FinitePointSet.of(triangle),
              convex_hull(FinitePointSet.of([(5, 5), (6, 5), (5, 6)])),
              ConvexPolytope(((5.0, 5.0),)), FinitePointSet.of([(5.0, 5.0)])]
    odd = []
    for bad in ((nan, 5.0), (inf, 5.0), (5.0, -inf)):
        verts = ((5.0, 5.0), bad, (5.0, 6.0))
        odd += [ConvexPolytope(verts), FinitePointSet(verts), ConvexPolytope((bad,)), FinitePointSet((bad,))]
    for x in odd:
        for y in finite + odd:
            assert math.isnan(hausdorff_distance(x, y)), (x, y)
            assert math.isnan(hausdorff_distance(y, x)), (y, x)


signed_coord = st.one_of(st.sampled_from((0.0, -0.0)), lattice_coord, coord)


def compact_sets(dim):
    """Point sets and their hulls (intervals, polygons, segments, points)."""
    pts = st.lists(st.tuples(*[signed_coord] * dim), min_size=1, max_size=8).map(FinitePointSet.of)
    return st.one_of(pts, pts.map(convex_hull))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2).flatmap(lambda dim: st.tuples(compact_sets(dim), compact_sets(dim))))
@example((ConvexPolytope.interval(-0.0, -0.0), FinitePointSet.of([(0.0,)])))
@example((ConvexPolytope.interval(-0.0, 1.0), FinitePointSet.of([(0.0,), (1.0,)])))
def test_hausdorff_distance_is_symmetric_bit_for_bit(pair):
    # the two directed distances are folded in one order whatever the
    # argument order, so a signed zero comes out the same both ways: the
    # first example is -0.0 in both orders
    a, b = pair
    assert hausdorff_distance(a, b).hex() == hausdorff_distance(b, a).hex(), (a, b)


def test_hausdorff_distance_scales_into_the_subnormal_range():
    # at 2**-1070 only small-integer coordinates scale exactly, and the scale
    # back up is 2**1070 times, past the largest float power of two
    poly = convex_hull(FinitePointSet.of([(0, 0), (4, 0), (0, 4)]))
    sites = FinitePointSet.of([(1, 1), (3, 0), (0, 3)])
    twin_poly, twin_sites = ConvexPolytope(scaled_points(poly.vertices, -1070)), FinitePointSet(
        scaled_points(sites.points, -1070))
    want = math.ldexp(hausdorff_distance(sites, poly), -1070)
    assert want > 0.0
    assert hausdorff_distance(twin_sites, twin_poly) == want == hausdorff_distance(twin_poly, twin_sites)


def test_hypot_rounds_as_pinned():
    # the d=2 point distances, and so several goldens, carry the bits of
    # math.hypot; CPython 3.10 to 3.13 give this digest.  The nearest-site
    # sweep also needs hypot(x, y) to be at least max(|x|, |y|)
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(100_000):
        e = rng.randint(-600, 600)
        x = math.ldexp(rng.uniform(-1.0, 1.0), e)
        y = math.ldexp(rng.uniform(-1.0, 1.0), e + rng.randint(-30, 30))
        h = math.hypot(x, y)
        assert h >= abs(x) and h >= abs(y), (x, y)
        digest.update(struct.pack("<d", h))
    assert digest.hexdigest() == "e37e309b58d70e2c373f58c5dc4b1377adf7a49b783c58fe9c5b8c98fef455a5"


@pytest.mark.parametrize("far", [1e200, 1e-170, 1.5e308, 5e-324])
def test_hausdorff_sets_2d_squares_no_gap(far):
    # dx*dx overflows to inf at 1e200 and underflows to 0.0 at 1e-170
    a, b = FinitePointSet.of([(0.0, 0.0)]), FinitePointSet.of([(far, 0.0)])
    assert hausdorff_distance(a, b) == far == hausdorff_distance(b, a)
    c = FinitePointSet.of([(0.0, far)])
    assert hausdorff_distance(b, c) == math.hypot(far, far)


def reference_hausdorff_sets_loop(a, b):
    """The d=1 Hausdorff distance of two point sets as a loop over every
    pair of points: the least squared gap ``dx*dx`` of each point, the
    largest of those, and its sqrt; NaN at the first NaN squared gap."""
    pa, pb = a.points, b.points
    nearest = [math.inf] * len(pb)
    worst = 0.0
    xs = [q[0] for q in pb]
    for (x,) in pa:
        row = math.inf
        for j in range(len(pb)):
            dx = x - xs[j]
            d2 = dx * dx
            if d2 < row:
                row = d2
            if d2 < nearest[j]:
                nearest[j] = d2
            elif d2 != d2:
                return math.nan
        if row > worst:
            worst = row
    return math.sqrt(max(worst, max(nearest)))


def hausdorff_loop_cases():
    """Point-set pairs for the Hausdorff distance of two point sets: seeded
    random sets from one point to 200 against 150, repeated points kept as
    given, one-point sets, near-duplicate self-midpoint lattices, sets with
    infinite (or NaN) coordinates, and d=1 sets drawn partly from a small
    pool (repeated points, signed zeros, the infinities), unsorted."""
    rng = random.Random(16)
    cases = []
    for dim in (1, 2):
        def points(n):
            return [tuple(rng.uniform(-5, 5) for _ in range(dim)) for _ in range(n)]

        for n, m in ((1, 1), (1, 9), (2, 2), (3, 5), (9, 9), (8, 15), (11, 12), (16, 16), (40, 5)):
            cases.append((FinitePointSet.of(points(n)), FinitePointSet.of(points(m))))
        shared = points(5)
        cases.append((FinitePointSet.of(shared), FinitePointSet.of(shared[:3] + points(2))))
        cases.append((FinitePointSet(tuple(shared * 2)), FinitePointSet(tuple(shared[:2] * 3))))
        cases.append((FinitePointSet.of(points(200)), FinitePointSet.of(points(150))))
    for dim, base in ((1, [(0.0,), (1 / 3,), (1.0,)]), (2, [(0.0, 0.0), (1 / 3, 0.1), (0.7, 1 / 7)])):
        space = compact_sets_space(dim)
        iterates = [FinitePointSet.of(base)]
        for _ in range(3):
            iterates.append(self_combination(space, iterates[-1], 2))
        nudged = [FinitePointSet(tuple(tuple(c + 1e-15 for c in p) for p in s.points)) for s in iterates]
        cases += list(zip(iterates, iterates[1:])) + list(zip(iterates, nudged))
    columns = FinitePointSet(tuple(LATTICE_COLUMNS))
    cases += [(columns, FinitePointSet(tuple(LATTICE_COLUMNS[:7]))),
              (FinitePointSet(tuple(LATTICE_COLUMNS[:9])), FinitePointSet(tuple(LATTICE_COLUMNS[3:12])))]
    inf, nan = math.inf, math.nan
    odd = [
        # inf - inf is NaN: the pair that makes it sits first, inside or last
        ((0.0,), (1.0,), (inf,)), ((inf,), (2.0,)), ((2.0,), (inf,), (3.0,)), ((-inf,), (0.0,)),
        ((inf, 0.0), (0.0, 0.0)), ((inf, 1.0),), ((0.0, -inf),), ((1.0, 2.0), (0.0, -inf), (3.0, 3.0)),
        ((inf, -inf),), ((-inf, inf), (0.0, 0.0)), ((1e200, 0.0),), ((-1e200, 0.0), (0.0, 0.0)),
        ((nan, 0.0), (1.0, 1.0)), ((nan,), (1.0,)), ((0.0,), (nan,), (-inf,)),
    ]
    for pts in odd:
        for other in odd:
            if len(pts[0]) == len(other[0]):
                cases.append((FinitePointSet(pts), FinitePointSet(other)))
    wide = tuple((float(i), float(-i)) for i in range(12))
    cases += [(FinitePointSet(wide + ((inf, 0.0),)), FinitePointSet(((inf, 5.0),) + wide)),
              (FinitePointSet(wide[:6] + ((0.0, -inf),) + wide[6:]), FinitePointSet(wide))]
    pool = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1 / 3, -2.5, inf, -inf)

    def pooled():
        return FinitePointSet(tuple((rng.choice(pool) if rng.random() < 0.5 else rng.uniform(-5, 5),)
                                    for _ in range(rng.randint(1, 12))))

    cases += [(pooled(), pooled()) for _ in range(2000)]
    return cases


def test_hausdorff_sets_1d_walk_matches_pairwise_loop():
    # the sorted walk gives the pairwise loop's bits, NaN wherever it gives NaN
    for a, b in hausdorff_loop_cases():
        for x, y in ((a, b), (b, a)):
            if x.dim == 1:
                assert hausdorff_distance(x, y).hex() == reference_hausdorff_sets_loop(x, y).hex(), (x, y)


@pytest.mark.parametrize("far", [1e200, 1e-170, 1.5e308, 5e-324])
def test_hausdorff_sets_1d_squares_no_gap(far):
    # dx*dx overflows to inf at 1e200 and underflows to 0.0 at 1e-170, so a
    # squared gap would read the sets as infinitely far or equal
    a, b = FinitePointSet.of([(0.0,)]), FinitePointSet.of([(far,)])
    assert hausdorff_distance(a, b) == far == hausdorff_distance(b, a)
    pair = FinitePointSet.of([(-far,), (0.0,)])
    assert hausdorff_distance(pair, FinitePointSet.of([(far,), (0.0,)])) == far


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(point2, min_size=2, max_size=40),
        st.lists(st.tuples(lattice_coord, lattice_coord), min_size=2, max_size=40),
        st.tuples(coord, coord, st.floats(0.01, 1.0), st.integers(2, 40)).map(
            lambda c: [(c[0] + k * c[2], c[1]) for k in range(c[3])]
        ),
    ),
    st.lists(st.one_of(point2, st.tuples(lattice_coord, lattice_coord)), min_size=2, max_size=7),
)
def test_clipped_cell_labels_match_reference_hypothesis(site_pts, poly_pts):
    sites = FinitePointSet.of(site_pts)
    poly = convex_hull(FinitePointSet.of(poly_pts))
    if len(sites) >= 2:
        assert_neighbour_order_matches_argsort(sites.points)
        if len(poly.vertices) >= 2:
            assert_labels_match_reference(poly, sites)


# integer grids scaled by a power of two: columns of equal x, exact squared
# distances with many ties, repeated points, and for a unit gap g the squared
# distances 8 g², 32 g², ... of the batch bounds
grid_sites = st.builds(
    lambda e, pts: [(math.ldexp(x, e), math.ldexp(y, e)) for x, y in pts],
    st.integers(-4, 4),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=40),
)


@st.composite
def sites_on_batch_bounds(draw):
    """The site (0, 0) with (0, g) next to it in its column, so that its
    batch bounds are 8 g², 32 g², 128 g², ..., and columns at x = ±r for
    those bounds with r*r equal to the bound in floats: a site at y = 0 in
    such a column sits exactly on the bound, and sites at multiples of g
    just past it.  The sites (±2g, ±2g), scaled alike, tie with it from
    columns inside the bound."""
    g = draw(st.floats(1e-3, 1e3))
    r = math.sqrt(8.0 * g * g)
    assume(r * r == 8.0 * g * g)
    pts = [(0.0, 0.0), (0.0, g)]
    for k in draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)):
        x = math.ldexp(r, k) * draw(st.sampled_from((1.0, -1.0)))
        pts += [(x, j * g) for j in draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))]
        pts += [(math.ldexp(u * g, k + 1), math.ldexp(v * g, k + 1))
                for u, v in draw(st.lists(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]), max_size=2))]
    return draw(st.permutations(pts))


@settings(max_examples=100, deadline=None)
@given(grid_sites)
def test_nearest_first_matches_argsort_on_grids(points):
    assert_neighbour_order_matches_argsort(points)


@settings(max_examples=100, deadline=None)
@given(sites_on_batch_bounds())
def test_nearest_first_matches_argsort_on_the_batch_bounds(points):
    assert_neighbour_order_matches_argsort(points)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(wide_coord, wide_coord), min_size=1, max_size=12))
@example([(-1e308, -1e308), (1e308, 1e308), (0.0, 1.0), (1e308, -1e308)])
@example([(6.8e-146, 7.8e154), (9.0e-146, -3.7e154), (6.8e-146, 7.8e154)])
@np.errstate(over="ignore", invalid="ignore")
def test_nearest_first_matches_argsort_on_any_finite_floats(points):
    # the squared distances of the 1e308 sites overflow to inf, which only
    # the last batch, of bound inf, takes
    assert_neighbour_order_matches_argsort(points)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(point2, min_size=1, max_size=30),
        st.lists(st.tuples(lattice_coord, lattice_coord), min_size=1, max_size=30),
        st.tuples(coord, coord, st.floats(0.01, 1.0), st.integers(1, 30)).map(
            lambda c: [(c[0] + k * c[2], c[1]) for k in range(c[3])]
        ),
    ),
    st.lists(st.one_of(point2, st.tuples(lattice_coord, lattice_coord)), min_size=1, max_size=7),
)
def test_covering_radius_matches_bruteforce_oracle_hypothesis(site_pts, poly_pts):
    sites = FinitePointSet.of(site_pts)
    poly = convex_hull(FinitePointSet.of(poly_pts))
    got = covering_radius(poly, sites)
    assert got == pytest.approx(brute_covering_radius(poly, sites), abs=1e-12)


@pytest.mark.parametrize("n", range(1, 15))
def test_covering_radius_of_triangle_self_combinations(n):
    space = compact_sets_space(dim=2)
    triangle = convexify_point("compact-sets", "two-point", dim=2)
    sites = self_combination(space, triangle, n)
    hull = convex_hull(triangle)
    got = covering_radius(hull, sites)
    assert got == pytest.approx(brute_covering_radius(hull, sites), abs=1e-12)


def test_covering_radius_voronoi_path_matches_bruteforce():
    rng = random.Random(5)
    poly = convex_hull(FinitePointSet.of([(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(6)]))
    sites = FinitePointSet.of([(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(150)])
    assert covering_radius(poly, sites) == pytest.approx(
        brute_covering_radius(poly, sites), abs=1e-9
    )


def test_hausdorff_collinear_sites_to_triangle():
    triangle = convex_hull(FinitePointSet.of([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]))
    sites = FinitePointSet.of([(k / 99, k / 99) for k in range(100)])
    oracle = max(
        max(point_to_polytope(p, triangle) for p in sites.points),
        brute_covering_radius(triangle, sites),
    )
    assert hausdorff_distance(sites, triangle) == pytest.approx(oracle, abs=1e-12)
    assert hausdorff_distance(triangle, sites) == pytest.approx(oracle, abs=1e-12)


SCIPY_FREE_RUN = """
import sys
from ccspace import FinitePointSet, cli, convex_hull, hausdorff_distance
sites = FinitePointSet.of([(i / 14, j / 14) for i in range(15) for j in range(15 - i)])
assert len(sites) == 120
hausdorff_distance(sites, convex_hull(FinitePointSet.of([(0, 0), (1, 0), (0, 1)])))
argv = ["convexify-rate", "--space", "compact-sets", "--dim", "2", "--n-max", "14"]
assert cli.main(argv + ["--out", sys.argv[1]]) == 0
assert "scipy" not in sys.modules
"""


def test_covering_radius_does_not_import_scipy(tmp_path):
    src = str(Path(ccspace.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path / "report.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=60, deadline=None)
@given(
    st.lists(point2, min_size=1, max_size=6),
    st.lists(point2, min_size=1, max_size=6),
    st.lists(point2, min_size=1, max_size=6),
)
def test_hausdorff_is_a_metric_on_point_sets(a_pts, b_pts, c_pts):
    a, b, c = (FinitePointSet.of(p) for p in (a_pts, b_pts, c_pts))
    dab = hausdorff_distance(a, b)
    dba = hausdorff_distance(b, a)
    assert dab == dba
    assert dab >= 0
    if a.points == b.points:
        assert dab == 0.0
    assert dab <= hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.lists(point2, min_size=1, max_size=6),
    st.lists(point2, min_size=1, max_size=6),
)
def test_polytope_hausdorff_matches_dense_set_approximation(a_pts, b_pts):
    # refining a polygon to a dense boundary point set approximates the
    # polygon-polygon distance from the set-set routine
    pa = convex_hull(FinitePointSet.of(a_pts))
    pb = convex_hull(FinitePointSet.of(b_pts))
    exact = hausdorff_distance(pa, pb)

    def densify(poly, k=60):
        verts = list(poly.vertices)
        if len(verts) == 1:
            return FinitePointSet.of(verts)
        out = []
        n = len(verts)
        for i in range(n if n > 2 else 1):
            a, b = verts[i], verts[(i + 1) % n]
            for t in range(k):
                s = t / k
                out.append((a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1])))
        out.append(verts[-1])
        return FinitePointSet.of(out)

    approx = hausdorff_distance(densify(pa), densify(pb))
    assert abs(exact - approx) <= 0.6  # densification slack only
    assert exact <= approx + 0.6
