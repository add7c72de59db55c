import dataclasses
import math

import pytest

from ccspace import (
    FinitePointSet,
    check_axioms,
    check_cancellation,
    compact_sets_space,
    distribution_space,
    embedding_suite,
    euclidean_space,
    power_space,
)
from ccspace.axioms import AxiomReport, nan_max
from ccspace.core import trial_rng
from ccspace.limits import rational_jensen_suite, weight_perturbation_suite
from ccspace import axioms, embedding, limits, probability
from ccspace.probability import conditional_suite, expectation_identity_suite
from mutants import METRIC_MUTANTS, MUTANTS, _offset_mutant

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
    assert not check.passed and check.witness == repr("first nan")
    assert check.trials == 4
    report.check("other").record(1.0, "big")
    assert math.isnan(report.worst_violation)


@pytest.mark.parametrize("suite", [check_axioms, check_cancellation, expectation_identity_suite,
                                   conditional_suite, weight_perturbation_suite,
                                   rational_jensen_suite], ids=lambda f: f.__name__)
@pytest.mark.parametrize("space", [euclidean_space(1), power_space(2.0, 1), compact_sets_space(1),
                                   distribution_space()], ids=lambda s: s.name)
def test_suites_default_to_the_space_tolerance(suite, space):
    assert suite(space, trials=1).tolerance == space.default_tolerance


def test_witness_is_formatted_only_for_a_failing_trial():
    class Loud:
        def __repr__(self):
            raise AssertionError("formatted a passing trial's witness")

    check = AxiomReport(space="x", seed=0, tolerance=1.0).check("law")
    check.record(0.5, Loud())
    check.record(2.0, "a", (1.0,))
    assert check.witness == "'a' | (1.0,)"


@pytest.mark.parametrize("run", [
    lambda: check_axioms(euclidean_space(1), trials=0),
    lambda: check_cancellation(euclidean_space(1), trials=0),
    lambda: expectation_identity_suite(euclidean_space(1), trials=0),
    lambda: conditional_suite(euclidean_space(1), trials=0),
    lambda: weight_perturbation_suite(euclidean_space(1), trials=0),
    lambda: rational_jensen_suite(euclidean_space(1), trials=0),
    lambda: embedding_suite(compact_sets_space(2), trials=0),
    lambda: embedding_suite(compact_sets_space(2), trials=-3),
], ids=["axioms", "cancellation", "expectation_identity", "conditional", "weight_perturbation",
        "rational_jensen", "embedding", "embedding_negative"])
def test_suites_reject_fewer_than_one_trial(run):
    # an empty report would pass vacuously
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run()


def test_worst_trial_keeps_its_case_and_index():
    check = AxiomReport(space="x", seed=0, tolerance=1.0).check("law")
    check.record(-1.0, case="below the floor", trial=0)
    assert check.case is None and check.trial is None
    check.record(0.5, case="largest", trial=1)
    check.record(0.25, case="smaller", trial=2)
    assert (check.case, check.trial) == ("largest", 1)
    check.record(math.nan, case="first nan", trial=3)
    check.record(math.nan, case="second nan", trial=4)
    assert (check.case, check.trial) == ("first nan", 3)


# each seeded suite as (the suite, its check tables)
SUITE_TABLES = {
    "axioms": (check_axioms, (axioms.AXIOM_CHECKS, (axioms.UNBIASED_IDENTITY,))),
    "cancellation": (check_cancellation, (axioms.CANCELLATION_CHECKS,)),
    "expectation_identity": (expectation_identity_suite, (probability.EXPECTATION_CHECKS,)),
    "conditional": (conditional_suite, (probability.CONDITIONAL_CHECKS,)),
    "weight_perturbation": (weight_perturbation_suite, (limits.WEIGHT_PERTURBATION_CHECKS,)),
    "rational_jensen": (rational_jensen_suite, (limits.RATIONAL_JENSEN_CHECKS,)),
    "embedding": (embedding_suite, (embedding.EMBEDDING_CHECKS,)),
}


def euclidean_d2():
    return euclidean_space(2)


def compact_sets_d2():
    return compact_sets_space(2)


# the broken spaces and an honest one that each suite runs on; the embedding
# draws polygons, so it takes compact-sets d=2 spaces
SUITE_SPACES = {suite: [m[0] for m in MUTANTS] + [euclidean_d2] for suite in SUITE_TABLES}
SUITE_SPACES["embedding"] = [m[0] for m in METRIC_MUTANTS] + [compact_sets_d2]


@pytest.mark.parametrize("trials", [3, 20])
@pytest.mark.parametrize(
    "suite,make", [(suite, make) for suite, makes in SUITE_SPACES.items() for make in makes],
    ids=[f"{suite}-{make.__name__}" for suite, makes in SUITE_SPACES.items() for make in makes])
def test_each_recorded_case_measures_its_worst_violation_again(suite, make, trials):
    # at seed 1, as the battery-mutant goldens run
    run, tables = SUITE_TABLES[suite]
    space = make()
    report = run(space, trials=trials, seed=1)
    checks = {check.name: check for table in tables for check in table}
    for name, result in report.checks.items():
        if not result.passed:
            assert result.case is not None, name
        if result.case is None:  # no violation rose above the 0.0 floor
            assert result.worst_violation == 0.0 and result.trial is None, name
            continue
        assert 0 <= result.trial < trials, name
        again = checks[name].measure(space, result.case)[0]
        assert repr(again) == repr(result.worst_violation), name


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


COUNTED_FIELDS = ("combine_terms", "distance", "convexify_exact", "sampler")
# (combine_terms, distance, convexify_exact, sampler) calls of each suite at
# 10 trials, seed 4.  Each suite draws each point and computes each value
# once per trial, so a duplicate put back raises a count
SUITE_CALLS = {
    "euclidean": {
        check_axioms: (320, 320, 88, 168),
        check_cancellation: (46, 70, 30, 30),
        expectation_identity_suite: (68, 48, 84, 56),
        conditional_suite: (42, 154, 106, 106),
        weight_perturbation_suite: (20, 38, 28, 38),
        rational_jensen_suite: (20, 43, 33, 33),
    },
    "compact-sets": {
        check_axioms: (300, 290, 88, 158),
        check_cancellation: (50, 70, 30, 30),
        expectation_identity_suite: (68, 48, 84, 56),
        conditional_suite: (42, 154, 106, 106),
        weight_perturbation_suite: (20, 38, 28, 38),
        rational_jensen_suite: (20, 43, 33, 33),
    },
    "power": {
        check_axioms: (290, 290, 88, 158),
        check_cancellation: (50, 70, 30, 30),
        expectation_identity_suite: (68, 48, 84, 56),
        conditional_suite: (42, 154, 106, 106),
        weight_perturbation_suite: (20, 38, 28, 38),
        rational_jensen_suite: (20, 43, 33, 33),
    },
    "distributions": {
        check_axioms: (290, 290, 88, 158),
        check_cancellation: (50, 70, 30, 30),
        expectation_identity_suite: (68, 48, 84, 56),
        conditional_suite: (42, 154, 106, 106),
        weight_perturbation_suite: (20, 38, 28, 38),
        rational_jensen_suite: (20, 43, 33, 33),
    },
}
# the constructor arguments of each counted space: d=2, and power r=2 d=1
SPACE_ARGS = {"euclidean": (2,), "compact-sets": (2,), "power": (2.0, 1), "distributions": ()}


def counted_contract(space):
    """``space`` with each field of ``COUNTED_FIELDS`` counting its calls."""
    counts = dict.fromkeys(COUNTED_FIELDS, 0)

    def counted(name):
        original = getattr(space, name)

        def call(*args):
            counts[name] += 1
            return original(*args)

        return call

    return dataclasses.replace(space, **{name: counted(name) for name in COUNTED_FIELDS}), counts


@pytest.mark.parametrize("name, make", [("euclidean", euclidean_space), ("compact-sets", compact_sets_space),
                                        ("power", power_space), ("distributions", distribution_space)])
def test_each_suite_computes_each_value_once(name, make, monkeypatch):
    expectations = []
    expectation = probability.expectation
    monkeypatch.setattr(probability, "expectation", lambda x: expectations.append(x) or expectation(x))
    for suite, want in SUITE_CALLS[name].items():
        space, counts = counted_contract(make(*SPACE_ARGS[name]))
        expectations.clear()
        suite(space, trials=10, seed=4)
        assert tuple(counts[name] for name in COUNTED_FIELDS) == want, suite.__name__
        # E x and E y once each, and E of their mixture; E x once for Jensen
        calls = {expectation_identity_suite: 30, conditional_suite: 10}.get(suite, 0)
        assert len(expectations) == calls, suite.__name__


def test_embedding_suite_embeds_each_polygon_once(monkeypatch):
    calls = []
    embed = embedding.embed
    monkeypatch.setattr(embedding, "embed", lambda *args: calls.append(args) or embed(*args))
    embedding_suite(compact_sets_space(2), trials=10, seed=4)
    assert len(calls) == 30  # the mixture, p and q per trial
