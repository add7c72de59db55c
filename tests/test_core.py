import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccspace import (
    CombinationError,
    FinitePointSet,
    WeightedCombination,
    combine,
    compact_sets_space,
    convexify,
    euclidean_space,
    get_space,
    midpoint,
    power_space,
    self_combination,
    uniform_mix,
)
from ccspace.core import SpaceContract


def test_weighted_combination_drops_zero_weights():
    wc = WeightedCombination.of([(0.0, "a"), (1.0, "b")])
    assert wc.terms == ((1.0, "b"),)


def test_weighted_combination_rejects_bad_sums():
    with pytest.raises(CombinationError):
        WeightedCombination.of([(0.5, "a"), (0.6, "b")])
    with pytest.raises(CombinationError):
        WeightedCombination.of([(0.5, "a"), (0.5 - 1e-9, "b")])


def test_weighted_combination_rejects_negative_and_empty():
    with pytest.raises(CombinationError):
        WeightedCombination.of([(-0.1, "a"), (1.1, "b")])
    # a NaN weight is neither positive nor zero: rejected, not dropped
    with pytest.raises(CombinationError, match="^weight must be nonnegative, got nan$"):
        WeightedCombination.of([(1.0, "a"), (math.nan, "b")])
    assert WeightedCombination.of([(-0.0, "a"), (1.0, "b")]).terms == ((1.0, "b"),)
    with pytest.raises(CombinationError):
        WeightedCombination.of([])
    with pytest.raises(CombinationError):
        WeightedCombination.of([(0.0, "a")])


def test_single_term_combination_is_exact_identity():
    space = power_space(2.0, 1)
    x = (0.1234567890123,)
    assert combine(space, [(1.0, x)]) is x
    assert combine(space, [(1.0, x), (0.0, (9.0,))]) is x


def test_euclidean_mean():
    space = euclidean_space(2)
    assert combine(space, [(0.5, (0.0, 0.0)), (0.5, (2.0, 4.0))]) == (1.0, 2.0)


def test_power_combination_matches_closed_form():
    space = power_space(2.0, 1)
    got = combine(space, [(0.8, (1.0,)), (0.2, (-0.5,))])
    assert got[0] == pytest.approx(16 / 25 * 1.0 + 1 / 25 * (-0.5), abs=1e-15)
    assert got[0] == pytest.approx(0.62, abs=1e-15)


@pytest.mark.parametrize("r", [1.0, 0.5, math.inf, math.nan])
def test_power_space_rejects_an_exponent_that_is_not_finite_above_one(r):
    # with r = inf, w ** r is 0 for every weight below 1, so every
    # combination of two or more terms would be the origin
    with pytest.raises(ValueError, match="power exponent must be finite and exceed 1"):
        power_space(r, 1)


@pytest.mark.parametrize("name,setting,message", [
    ("distributions", {"dim": 2}, "distributions dimension must be 1"),
    ("distributions", {"dim": 0}, "distributions dimension must be 1"),
    ("euclidean", {"r": 3.0}, "euclidean space takes no exponent r"),
    ("compact-sets", {"r": math.nan}, "compact-sets space takes no exponent r"),
    ("distributions", {"r": math.inf}, "distributions space takes no exponent r"),
    ("euclidean", {"dim": 7}, "euclidean dimension must be 1, 2, or 3"),
    ("compact-sets", {"dim": 3}, "compact-sets dimension must be 1 or 2"),
    ("power", {"dim": 4}, "power dimension must be 1, 2, or 3"),
    ("power", {"r": 0.5}, "power exponent must be finite and exceed 1"),
    ("hilbert", {}, "unknown space 'hilbert'"),
])
def test_get_space_rejects_a_setting_its_instance_does_not_take(name, setting, message):
    with pytest.raises(ValueError, match=message):
        get_space(name, **setting)


@pytest.mark.parametrize("space", [euclidean_space(1), euclidean_space(3), power_space(2.0, 1),
                                   power_space(3.0, 2)], ids=lambda space: space.name)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vector_combination_rejects_non_finite_points(space, bad):
    # points built in code skip the text parser's check; the combination
    # must not hand back a NaN or infinite coordinate
    dim = len(space.sample(random.Random(0)))
    with pytest.raises(ValueError, match="coordinates must be finite"):
        combine(space, [(0.5, (bad,) + (0.0,) * (dim - 1)), (0.5, (1.0,) * dim)])


def test_midpoint_definitions():
    euclid = euclidean_space(2)
    assert midpoint(euclid, (0.0, 0.0), (2.0, 2.0)) == (1.0, 1.0)
    power = power_space(2.0, 1)
    # sum of squared half-weights: x/4 + y/4
    assert midpoint(power, (1.0,), (3.0,)) == (1.0,)


def test_midpoint_of_convex_point_is_fixed():
    space = compact_sets_space(1)
    box = convexify(space, FinitePointSet.of([(0.0,), (1.0,)]))
    assert space.distance(midpoint(space, box, box), box) <= 1e-12


def test_convexify_uses_exact_operator():
    space = power_space(2.0, 3)
    assert convexify(space, (4.0, -1.0, 2.0)) == (0.0, 0.0, 0.0)
    euclid = euclidean_space(1)
    assert convexify(euclid, (3.5,)) == (3.5,)


@pytest.mark.parametrize("missing", ["convexify_exact", "sampler"])
def test_space_contract_requires_convexifier_and_sampler(missing):
    base = euclidean_space(1)
    fields = dict(name="partial", distance=base.distance, combine_terms=base.combine_terms,
                  convexify_exact=base.convexify_exact, sampler=base.sampler)
    del fields[missing]
    with pytest.raises(TypeError, match=missing):
        SpaceContract(**fields)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=6),
    st.integers(min_value=2, max_value=9),
)
def test_power_self_combination_closed_form(coords, n):
    # [n^-1, x]^n = n * n^-r * x
    space = power_space(2.0, 1)
    for c in coords:
        got = self_combination(space, (c,), n)
        assert got[0] == pytest.approx(c / n, rel=1e-12, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=5))
def test_uniform_mix_is_arithmetic_mean_in_euclidean(points):
    space = euclidean_space(2)
    got = uniform_mix(space, points)
    n = len(points)
    expected = (
        math.fsum(p[0] for p in points) / n,
        math.fsum(p[1] for p in points) / n,
    )
    assert got[0] == pytest.approx(expected[0], abs=1e-12)
    assert got[1] == pytest.approx(expected[1], abs=1e-12)
