import dataclasses
import math

import pytest

from ccspace import (
    FinitePointSet,
    check_axioms,
    check_cancellation,
    compact_sets_space,
    distribution_space,
    euclidean_space,
    power_space,
)
from ccspace.axioms import AxiomReport, nan_max
from ccspace.core import SpaceContract, trial_rng

SPACES = [
    euclidean_space(2),
    power_space(2.0, 1),
    compact_sets_space(1),
    compact_sets_space(2),
    distribution_space(),
]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_axiom_suite_passes(space):
    report = check_axioms(space, trials=200, seed=7)
    assert report.passed, report.failures()
    assert report.worst_violation <= space.default_tolerance


def test_axiom_suite_is_seed_deterministic():
    a = check_axioms(euclidean_space(2), trials=50, seed=3)
    b = check_axioms(euclidean_space(2), trials=50, seed=3)
    assert a.rows() == b.rows()


def test_trial_streams_are_independent_of_order():
    a = [trial_rng(9, i).random() for i in range(10)]
    b = [trial_rng(9, i).random() for i in reversed(range(10))]
    assert a == list(reversed(b))


def _offset_mutant():
    base = euclidean_space(1)

    def bad_combine(terms):
        return tuple(math.fsum(w * p[c] for w, p in terms) + 0.1 for c in range(1))

    return SpaceContract(
        name="euclid-plus-offset",
        distance=base.distance,
        combine_terms=bad_combine,
        convexify_exact=lambda x: x,
        sampler=base.sampler,
        unbiased=True,
    )


def test_mutant_instance_fails_identity_checks():
    report = check_axioms(_offset_mutant(), trials=40, seed=1)
    assert not report.passed
    fixed_point = report.checks["convexification_fixed_point"]
    unbiased = report.checks["unbiased_identity"]
    assert not fixed_point.passed and fixed_point.witness is not None
    assert not unbiased.passed and unbiased.witness is not None
    assert fixed_point.worst_violation == pytest.approx(0.1, abs=1e-12)
    # the offset also breaks two-level flattening
    assert not report.checks["flattening"].passed


def _nan_distance_mutant():
    return dataclasses.replace(
        euclidean_space(1), name="euclid-nan-distance", distance=lambda a, b: math.nan
    )


# broken instances, each with the named checks that must catch it
MUTANTS = [
    (_offset_mutant, ("convexification_fixed_point",)),
    # NaN must survive every fold of several distances within a trial
    (_nan_distance_mutant, ("commutativity", "continuity", "convexification_cauchy",
                            "convexification_fixed_point", "convexifier_idempotent",
                            "unbiased_identity")),
]


@pytest.mark.parametrize("make,checks", MUTANTS, ids=[m[0].__name__ for m in MUTANTS])
def test_mutant_corpus_is_caught(make, checks):
    report = check_axioms(make(), trials=40, seed=1)
    assert not report.passed
    for check in checks:
        caught = report.checks[check]
        assert not caught.passed and caught.witness is not None, check
    assert not report.worst_violation <= report.tolerance


@pytest.mark.parametrize("values,expected", [
    ([1.0, 3.0, 2.0], 3.0),
    ([0.0, -0.0], 0.0),
    ([-0.0, 0.0], -0.0),
    ([1.0, math.nan, 5.0], math.nan),
    ([math.nan, 1.0], math.nan),
    ([5.0, math.nan], math.nan),
])
def test_nan_max_is_max_unless_a_value_is_nan(values, expected):
    got = nan_max(values)
    assert repr(got) == repr(expected)
    assert repr(nan_max(*values)) == repr(expected)
    if not math.isnan(expected):
        assert repr(got) == repr(max(values))


def test_nan_max_default_only_for_no_values():
    assert nan_max([], default=0.0) == 0.0
    assert nan_max([-1.0], default=0.0) == -1.0
    with pytest.raises(ValueError):
        nan_max([])


def test_nan_violation_fails_and_keeps_its_witness():
    report = AxiomReport(space="x", seed=0, tolerance=1e-9)
    check = report.check("law")
    check.record(0.0, "ok")
    check.record(math.nan, "first nan")
    check.record(5.0, "larger")
    check.record(math.nan, "second nan")
    assert not check.passed and check.witness == "first nan"
    assert check.trials == 4
    report.check("other").record(1.0, "big")
    assert math.isnan(report.worst_violation)


def test_check_axioms_rejects_zero_trials():
    with pytest.raises(ValueError):
        check_axioms(euclidean_space(1), trials=0)


@pytest.mark.parametrize(
    "space",
    [euclidean_space(2), compact_sets_space(1), compact_sets_space(2), distribution_space()],
    ids=lambda s: s.name,
)
def test_cancellation_on_convex_points(space):
    report = check_cancellation(space, trials=200, seed=11)
    assert report.passed, report.failures()


def test_cancellation_hyperspace_concrete_example():
    # x = {0}, y = {1}, z = {3}, lam = 1/2: both combinations are singletons
    # and the distance halves, matching (1 - lam) d(y, z)
    space = compact_sets_space(1)
    x, y, z = (FinitePointSet.of([(float(v),)]) for v in (0, 1, 3))
    left = space.combine_terms([(0.5, x), (0.5, y)])
    right = space.combine_terms([(0.5, x), (0.5, z)])
    assert left.points == ((0.5,),)
    assert right.points == ((1.5,),)
    assert space.distance(left, right) == 1.0 == 0.5 * space.distance(y, z)


def test_cancellation_raw_power_space_is_the_documented_failure():
    space = power_space(2.0, 1)
    report = check_cancellation(space, trials=100, seed=11, convex_points=False)
    assert not report.passed
    # on raw points of the squared-weight space the left side carries an
    # extra factor (1 - lam), so the recorded discrepancy is lam(1-lam)|y-z|
    check = report.checks["cancellation_equality"]
    assert check.worst_violation > 0.1
    assert check.witness is not None


def test_cancellation_raw_power_space_matches_closed_form():
    space = power_space(2.0, 1)
    lam = 0.25
    x, y, z = (2.0,), (1.0,), (-3.0,)
    lhs = space.distance(
        space.combine_terms([(lam, x), (1 - lam, y)]),
        space.combine_terms([(lam, x), (1 - lam, z)]),
    )
    assert lhs == pytest.approx((1 - lam) ** 2 * abs(y[0] - z[0]), abs=1e-12)
    assert abs(lhs - (1 - lam) * abs(y[0] - z[0])) == pytest.approx(
        lam * (1 - lam) * abs(y[0] - z[0]), abs=1e-12
    )


def test_cancellation_convex_mode_requires_exact_convexifier():
    base = euclidean_space(1)
    stripped = SpaceContract(
        name="no-k",
        distance=base.distance,
        combine_terms=base.combine_terms,
        convexify_exact=None,
        sampler=base.sampler,
    )
    with pytest.raises(ValueError):
        check_cancellation(stripped, trials=1)
