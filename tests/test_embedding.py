import math
import random

import pytest

from ccspace import (
    AffineFunctional,
    ConvexPolytope,
    FinitePointSet,
    compact_sets_space,
    convex_hull,
    embed,
    embedded_distance,
    embedding_suite,
    hausdorff_distance,
    polytope_combine,
    support_function,
)
from ccspace.embedding import (
    combine_support_vectors,
    direction_set_for,
    edge_normals,
    SupportVector,
    random_polygon,
    sup_norm_gap,
)
from ccspace.probability import SupportMax
SQUARE = convex_hull(FinitePointSet.of([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]))


def grid_sup_gap(p, q, k=2000):
    return max(
        abs(
            support_function(p, (math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k)))
            - support_function(q, (math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k)))
        )
        for i in range(k)
    )


def test_support_function_examples():
    assert support_function(SQUARE, (1.0, 0.0)) == 1.0
    box = ConvexPolytope.interval(-2.0, 5.0)
    assert support_function(box, (1.0,)) == 5.0
    assert support_function(box, (-1.0,)) == 2.0
    tri = convex_hull(FinitePointSet.of([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]))
    d = 1 / math.sqrt(2)
    assert support_function(tri, (d, d)) == pytest.approx(math.sqrt(2), abs=1e-15)


def test_embed_degenerate_point():
    dot = ConvexPolytope(((1.5, -2.0),))
    dirs = direction_set_for(dot, grid=8)
    sv = embed(dot, dirs)
    for (vx, vy), value in zip(sv.directions, sv.values):
        assert value == pytest.approx(1.5 * vx - 2.0 * vy, abs=1e-15)


def test_embed_interval_axis_values():
    box = ConvexPolytope.interval(0.0, 1.0)
    sv = embed(box, [(1.0,), (-1.0,)])
    assert sv.values == (1.0, 0.0)


def test_embed_rejects_non_unit_directions():
    with pytest.raises(ValueError):
        embed(SQUARE, [(2.0, 0.0)])


def test_embedding_affinity_is_exact():
    rng = random.Random(12)
    for _ in range(200):
        p = random_polygon(rng)
        q = random_polygon(rng)
        lam = rng.uniform(0.05, 0.95)
        mixed = polytope_combine([lam, 1 - lam], [p, q])
        dirs = direction_set_for(p, q, mixed)
        gap = sup_norm_gap(
            embed(mixed, dirs),
            combine_support_vectors([lam, 1 - lam], [embed(p, dirs), embed(q, dirs)]),
        )
        assert gap <= 1e-12


def test_sup_norm_gap_keeps_a_nan_in_either_position():
    d = ((1.0,), (-1.0,))
    nan = SupportVector(d, (0.0, math.nan))
    zero = SupportVector(d, (0.0, 0.0))
    assert math.isnan(sup_norm_gap(nan, zero))
    assert math.isnan(sup_norm_gap(zero, nan))
    assert math.isnan(sup_norm_gap(SupportVector(d, (math.nan, 0.0)), zero))
    assert sup_norm_gap(SupportVector(d, (0.5, -2.0)), zero) == 2.0


def test_embedded_distance_translate_example():
    moved = convex_hull(FinitePointSet.of([(x + 2.0, y) for x, y in SQUARE.vertices]))
    assert embedded_distance(SQUARE, moved) == pytest.approx(2.0, abs=1e-12)
    assert embedded_distance(SQUARE, SQUARE) == 0.0


def test_embedded_distance_interval_case():
    a = ConvexPolytope.interval(0.0, 1.0)
    b = ConvexPolytope.interval(0.0, 3.0)
    assert embedded_distance(a, b) == 2.0


def test_embedded_distance_dominates_grid_oracle():
    rng = random.Random(77)
    for _ in range(50):
        p = random_polygon(rng, max_vertices=7)
        q = random_polygon(rng, max_vertices=7)
        exact = embedded_distance(p, q)
        grid = grid_sup_gap(p, q)
        assert exact >= grid - 1e-12
        assert exact <= grid + 0.05


def test_isometry_with_hausdorff():
    rng = random.Random(3)
    for _ in range(200):
        p = random_polygon(rng)
        q = random_polygon(rng)
        assert abs(embedded_distance(p, q) - hausdorff_distance(p, q)) <= 1e-9


def test_edge_normals_unit_and_outward():
    segment = convex_hull(FinitePointSet.of([(2.0, 0.0), (0.0, 0.0)]))
    for body in (SQUARE, segment):
        for nx, ny in edge_normals(body):
            assert math.hypot(nx, ny) == pytest.approx(1.0, abs=1e-15)
    assert set(edge_normals(SQUARE)) == {(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)}
    # a segment has one edge and both of its sides; a point has no edge
    assert edge_normals(segment) == ((0.0, -1.0), (0.0, 1.0))
    assert edge_normals(ConvexPolytope(((1.0, 2.0),))) == ()


def test_linear_growth_bound():
    rng = random.Random(41)
    origin = ConvexPolytope(((0.0, 0.0),))
    for _ in range(100):
        p = random_polygon(rng)
        reach = hausdorff_distance(p, origin)
        dirs = direction_set_for(p, grid=12)
        assert max(abs(v) for v in embed(p, dirs).values) <= reach + 1e-12


def test_embedding_suite_passes():
    report = embedding_suite(compact_sets_space(2), trials=150, seed=2)
    assert report.passed, report.failures()
    assert report.checks["affinity"].worst_violation <= 1e-12
    assert report.checks["isometry"].worst_violation <= 1e-9


def test_affine_functional_requires_unit_direction():
    with pytest.raises(ValueError):
        AffineFunctional((0.5, 0.5))


def test_a_nan_direction_is_not_unit_norm():
    # abs(nan - 1.0) > tol is False, so the check must be written to fail on NaN
    with pytest.raises(ValueError, match="unit-norm"):
        AffineFunctional((math.nan, 0.0))
    with pytest.raises(ValueError, match="unit-norm"):
        SupportMax.of([[math.nan, 0.0]], [0.0])
    with pytest.raises(ValueError, match="unit-norm"):
        embed(SQUARE, [(1.0, 0.0), (math.nan, 0.0)])


def test_support_function_on_point_sets():
    s = FinitePointSet.of([(0.0, 0.0), (1.0, 3.0), (2.0, -1.0)])
    assert support_function(s, (1.0, 0.0)) == 2.0
    assert support_function(s, (0.0, 1.0)) == 3.0
    # support of a set equals the support of its hull
    hull = convex_hull(s)
    assert support_function(hull, (0.6, 0.8)) == support_function(s, (0.6, 0.8))
    # a vector is its one-point body
    assert support_function((1.0, 3.0), (0.6, 0.8)) == support_function(
        FinitePointSet.of([(1.0, 3.0)]), (0.6, 0.8))
