import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccspace import (
    ConvexPolytope,
    EnumerationCapError,
    FinitePointSet,
    convex_hull,
    hausdorff_distance,
    minkowski_combine,
    polytope_combine,
)
from ccspace.geometry import (
    _directed_polytope_to_sites,
    _minkowski_sum_pair,
    _polygon_contains,
    point_to_polytope,
    translate_polytope,
)

coord = st.floats(-10, 10, allow_nan=False)
point2 = st.tuples(coord, coord)
point1 = st.tuples(coord)


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


def test_point_set_rejects_empty_and_mixed_dims():
    with pytest.raises(ValueError):
        FinitePointSet.of([])
    with pytest.raises(ValueError):
        FinitePointSet.of([(0.0,), (0.0, 1.0)])


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


def test_minkowski_cap_raises_without_pruning():
    a = FinitePointSet.of([(float(i), float(i * i)) for i in range(8)])
    with pytest.raises(EnumerationCapError):
        minkowski_combine([0.25] * 4, [a] * 4, cap=100)


def test_minkowski_pruning_error_is_bounded():
    a = FinitePointSet.of([(float(i), float(3 * i + 1)) for i in range(8)])
    exact = minkowski_combine([0.25] * 4, [a] * 4, cap=100_000)
    res = 1e-3
    pruned = minkowski_combine([0.25] * 4, [a] * 4, cap=100, prune_resolution=res)
    # documented bound: resolution * sqrt(d) per call, accumulated over steps
    assert hausdorff_distance(exact, pruned) <= 4 * res * math.sqrt(2)


# ---------------------------------------------------------------------------
# polytope combinations


def test_interval_combine_matches_interval_arithmetic():
    got = polytope_combine([0.5, 0.5], [ConvexPolytope.interval(0, 2), ConvexPolytope.interval(4, 4)])
    assert (got.lo, got.hi) == (2.0, 3.0)


def test_combining_identical_intervals_is_identity():
    box = ConvexPolytope.interval(0, 1)
    got = polytope_combine([0.5, 0.5], [box, box])
    assert (got.lo, got.hi) == (0.0, 1.0)


def test_square_translation_average():
    square = ConvexPolytope.from_points([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    moved = translate_polytope(square, (2.0, 0.0))
    got = polytope_combine([0.5, 0.5], [square, moved])
    assert got.vertices == translate_polytope(square, (1.0, 0.0)).vertices


@settings(max_examples=80, deadline=None)
@given(
    st.lists(point2, min_size=1, max_size=7),
    st.lists(point2, min_size=1, max_size=7),
)
def test_pairwise_sum_oracle(p_pts, q_pts):
    p = convex_hull(FinitePointSet.of(p_pts))
    q = convex_hull(FinitePointSet.of(q_pts))
    got = _minkowski_sum_pair(p, q)
    oracle = convex_hull(
        FinitePointSet.of([(a[0] + b[0], a[1] + b[1]) for a in p.vertices for b in q.vertices])
    )
    assert hausdorff_distance(got, oracle) <= 1e-9
    assert len(got.vertices) <= len(p.vertices) + len(q.vertices)


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


def test_hausdorff_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        hausdorff_distance(FinitePointSet.of([(0.0,)]), FinitePointSet.of([(0.0, 0.0)]))


def _grid_covering_radius(poly, sites, k=220):
    arr = np.array(poly.vertices)
    lo, hi = arr.min(0), arr.max(0)
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], k), np.linspace(lo[1], hi[1], k))
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    inside = np.array([_polygon_contains(poly, p) for p in pts])
    pts = pts[inside]
    dists = np.sqrt(((pts[:, None, :] - sites.arr[None, :, :]) ** 2).sum(2)).min(1)
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
        exact = _directed_polytope_to_sites(poly, sites)
        grid = _grid_covering_radius(poly, sites)
        assert exact >= grid - 1e-9
        assert exact <= grid + 0.2  # grid resolution slack


def test_covering_radius_voronoi_path_matches_bruteforce():
    from ccspace import geometry as geo

    rng = random.Random(5)
    poly = convex_hull(FinitePointSet.of([(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(6)]))
    sites = FinitePointSet.of([(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(150)])
    via_voronoi = _directed_polytope_to_sites(poly, sites)
    saved = geo._LEC_BRUTE_LIMIT
    try:
        geo._LEC_BRUTE_LIMIT = 10**9
        brute = _directed_polytope_to_sites(poly, sites)
    finally:
        geo._LEC_BRUTE_LIMIT = saved
    assert via_voronoi == pytest.approx(brute, abs=1e-9)


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
