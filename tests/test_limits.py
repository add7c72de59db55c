import math
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ccspace import cli
from ccspace import (
    ConvexPolytope,
    CyclicTransformation,
    DiscreteDistribution,
    DistanceTo,
    EnumerationCapError,
    FinitePointSet,
    FiniteSampleSpace,
    RandomElement,
    WeightedCombination,
    combine,
    compact_sets_space,
    convexification_rate,
    distribution_space,
    ergodic_run,
    euclidean_space,
    expectation,
    power_space,
    rational_jensen_check,
    raw_vs_convex_average_run,
    scaling_counterexample,
    slln_run,
    weight_perturbation_check,
)
from ccspace import limits
from ccspace.core import EXACT_TOL, WEIGHT_SUM_TOL
from ccspace.limits import (
    ConvergenceTrace,
    _running_means,
    rational_jensen_suite,
    weight_perturbation_suite,
)
from ccspace.fixtures import convexify_point, ergodic_element, slln_law
from mutants import _mass_to_first_mutant

E1 = euclidean_space(1)
CS1 = compact_sets_space(1)


def test_trace_build_validation():
    with pytest.raises(ValueError):
        ConvergenceTrace.build([], [], "x", 1.0)
    with pytest.raises(ValueError):
        ConvergenceTrace.build([1, 2], [0.5], "x", 1.0)
    with pytest.raises(ValueError):
        ConvergenceTrace.build([1], [-0.5], "x", 1.0)
    trace = ConvergenceTrace.build([1, 2], [0.5, 0.01], "x", 0.05)
    assert trace.verdict and trace.final_distance == 0.01


@pytest.mark.parametrize(
    "run",
    [
        lambda: slln_run(E1, slln_law("euclidean", "bernoulli"), 0),
        lambda: ergodic_run(CyclicTransformation(5, 2), ergodic_element(E1, "euclidean", 5), 0),
        lambda: raw_vs_convex_average_run(CS1, [FinitePointSet.of([(0.0,), (1.0,)])], 0),
    ],
    ids=["slln", "ergodic", "prop55"],
)
def test_empty_averaging_trace_is_rejected_by_the_trace_itself(run):
    # no step means no direct-check gap; the empty trace is the error
    with pytest.raises(ValueError, match="indices and distances must align and be nonempty"):
        run()


@pytest.mark.parametrize("tail", [[math.nan, 0.01], [0.01, math.nan]])
def test_trace_with_nan_in_tail_fails(tail):
    assert not ConvergenceTrace.build([1, 2, 3], [0.5, *tail], "x", 0.05).verdict


@pytest.mark.parametrize("tail", [[math.inf, 0.01], [0.01, math.inf]])
def test_trace_with_infinite_distance_fails(tail):
    # a metric distance is never infinite, so such a row comes from a broken instance
    assert not ConvergenceTrace.build([1, 2, 3], [0.5, *tail], "x", 0.05).verdict


# ---------------------------------------------------------------------------
# strong law


def test_slln_constant_convex_law_is_exact():
    box = ConvexPolytope.interval(1.0, 2.0)
    trace = slln_run(CS1, [(1.0, box)], n_max=50, seed=0)
    assert max(trace.distances) <= 1e-12


def test_slln_euclidean_bernoulli_converges():
    trace = slln_run(E1, [(0.5, (0.0,)), (0.5, (1.0,))], n_max=10_000, seed=20240720)
    assert trace.final_distance < 0.05
    assert trace.verdict


def test_slln_hyperspace_interval_law():
    law = [(0.5, ConvexPolytope.interval(0.0, 1.0)), (0.5, ConvexPolytope.interval(2.0, 2.0))]
    target = expectation(
        RandomElement(
            CS1,
            FiniteSampleSpace.of(("a", "b"), (0.5, 0.5)),
            {"a": law[0][1], "b": law[1][1]},
        )
    )
    assert (target.lo, target.hi) == (1.0, 1.5)
    trace = slln_run(CS1, law, n_max=10_000, seed=3)
    assert trace.final_distance < 0.05


def test_slln_raw_track_matches_convex_track_limit():
    law = [
        (0.5, FinitePointSet.of([(0.0,), (1.0,)])),
        (0.5, FinitePointSet.of([(2.0,)])),
    ]
    raw = slln_run(CS1, law, n_max=60, seed=5, mode="raw_track", tolerance=0.5)
    cooked = slln_run(CS1, law, n_max=60, seed=5, mode="convex_track", tolerance=0.5)
    assert raw.final_distance <= cooked.final_distance + 0.5


def test_slln_is_seed_deterministic():
    a = slln_run(E1, [(0.5, (0.0,)), (0.5, (1.0,))], n_max=500, seed=11)
    b = slln_run(E1, [(0.5, (0.0,)), (0.5, (1.0,))], n_max=500, seed=11)
    assert a.distances == b.distances


def test_slln_rejects_unknown_mode():
    with pytest.raises(ValueError):
        slln_run(E1, [(1.0, (0.0,))], n_max=10, mode="warp")


def test_slln_raw_track_propagates_enumeration_cap():
    tiny = compact_sets_space(2, cap=50)
    law = [
        (0.5, FinitePointSet.of([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])),
        (0.5, FinitePointSet.of([(2.0, 2.0), (3.0, 1.0), (1.0, 3.0)])),
    ]
    with pytest.raises(EnumerationCapError):
        slln_run(tiny, law, n_max=500, seed=1, mode="raw_track")


# ---------------------------------------------------------------------------
# ergodic averages


def test_ergodic_five_cycle_closed_form():
    omega = FiniteSampleSpace.uniform(5)
    x = RandomElement(E1, omega, {a: (float(i),) for i, a in enumerate(omega.atoms)})
    trace = ergodic_run(CyclicTransformation(5, 2), x, 5)
    # orbit from 0 visits 0, 2, 4, 1, 3; EX = 2
    averages = [0.0, 1.0, 2.0, 7.0 / 4.0, 2.0]
    assert trace.distances == pytest.approx([abs(a - 2.0) for a in averages], abs=1e-12)
    assert trace.distances[-1] == 0.0


def test_ergodic_constant_element_is_flat():
    omega = FiniteSampleSpace.uniform(6)
    x = RandomElement(E1, omega, {a: (1.5,) for a in omega.atoms})
    trace = ergodic_run(CyclicTransformation(6, 5), x, 6)
    assert max(trace.distances) <= 1e-12


def test_ergodic_full_orbit_identity_every_start():
    space = CS1
    x = ergodic_element(space, "compact-sets", 60)
    tau = CyclicTransformation(60, 7)
    for start in (0, 1, 17, 59):
        trace = ergodic_run(tau, x, 60, start=start)
        assert trace.distances[-1] <= 1e-12


def test_ergodic_is_exact_at_every_full_period_and_linear():
    x = ergodic_element(E1, "euclidean", 4000)
    started = time.monotonic()
    trace = ergodic_run(CyclicTransformation(4000, 7), x, 12_000)
    elapsed = time.monotonic() - started
    assert [trace.distances[n - 1] for n in (4000, 8000, 12_000)] == [0.0, 0.0, 0.0]
    assert trace.verdict and trace.direct_check_gap <= EXACT_TOL
    assert elapsed < 2.0, f"12000-row ergodic trace took {elapsed:.2f}s"


def test_ergodic_later_periods_of_a_non_convex_average():
    # in the power space [1/k, A]^k = k^(1-r) A, so A is not the k-period average
    space = power_space(2.0, 1)
    omega = FiniteSampleSpace.uniform(4)
    x = RandomElement(space, omega, {a: (float(i + 1),) for i, a in enumerate(omega.atoms)})
    trace = ergodic_run(CyclicTransformation(4, 1), x, 16, tolerance=1.0)
    period = 10.0 / 16.0  # [1/4, (1, 2, 3, 4)] = (1 + 2 + 3 + 4) / 4^2
    for k in (1, 2, 3, 4):
        assert trace.distances[4 * k - 1] == pytest.approx(period / k, rel=1e-12)
    assert trace.verdict and trace.direct_check_gap <= EXACT_TOL


def test_ergodic_rejects_non_coprime_step():
    with pytest.raises(ValueError):
        CyclicTransformation(10, 4)


def test_ergodic_rejects_non_uniform_measure():
    omega = FiniteSampleSpace.of(("a", "b"), (0.25, 0.75))
    x = RandomElement(E1, omega, {"a": (0.0,), "b": (1.0,)})
    with pytest.raises(ValueError):
        ergodic_run(CyclicTransformation(2, 1), x, 2)


# ---------------------------------------------------------------------------
# convexification rate


def test_convexify_rate_two_point_closed_form():
    x = FinitePointSet.of([(0.0,), (1.0,)])
    n_list = [1, 2, 4, 8, 16, 32, 64]
    trace = convexification_rate(CS1, x, n_list, tolerance=1.0)
    for n, d in zip(trace.indices, trace.distances):
        assert d * 2 * n == pytest.approx(1.0, abs=1e-12)


def test_convexify_rate_euclidean_is_zero():
    trace = convexification_rate(E1, (3.0,), [1, 2, 4, 8], tolerance=1e-12)
    assert max(trace.distances) == 0.0
    assert trace.verdict


def test_convexify_rate_power_space_closed_form():
    space = power_space(2.0, 1)
    trace = convexification_rate(space, (1.0,), [1, 2, 4, 8, 16], tolerance=1.0)
    for n, d in zip(trace.indices, trace.distances):
        assert d == pytest.approx(1.0 / n, rel=1e-12)


def test_convexify_rate_rejects_unsorted_n():
    with pytest.raises(ValueError):
        convexification_rate(E1, (0.0,), [4, 2])
    with pytest.raises(ValueError):
        convexification_rate(E1, (0.0,), [0, 2])


def test_convexify_rate_sparse_n_list_matches_full_sweep():
    x = FinitePointSet.of([(0.0,), (1.0,)])
    full = convexification_rate(CS1, x, list(range(1, 41)), tolerance=1.0)
    sparse = convexification_rate(CS1, x, [3, 17, 40], tolerance=1.0)
    assert sparse.distances == tuple(full.distances[n - 1] for n in (3, 17, 40))


@pytest.mark.parametrize("space,fixture", [
    (CS1, convexify_point("compact-sets", "two-point")),
    (distribution_space(), convexify_point("distributions", "unit")),
], ids=["compact-sets", "distributions"])
def test_convexify_rate_scales_to_256(space, fixture):
    started = time.monotonic()
    trace = convexification_rate(space, fixture, list(range(1, 257)), tolerance=1.0)
    elapsed = time.monotonic() - started
    assert trace.verdict and trace.direct_check_gap <= EXACT_TOL
    assert elapsed < 2.0, f"rate trace to n = 256 took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# raw vs convexified averages


def test_raw_vs_convex_alternating_family():
    family = [FinitePointSet.of([(0.0,), (1.0,)]), FinitePointSet.of([(2.0,)])]
    trace = raw_vs_convex_average_run(CS1, family, n_max=12)
    # brute-force oracle at n = 2: raw {1, 1.5} vs interval [1, 1.5]
    assert trace.distances[1] == pytest.approx(0.25, abs=1e-12)
    assert trace.distances[-1] < trace.distances[1]
    assert trace.verdict


def test_raw_vs_convex_all_convex_is_zero():
    family = [ConvexPolytope.interval(0.0, 1.0), ConvexPolytope.interval(2.0, 3.0)]
    trace = raw_vs_convex_average_run(CS1, family, n_max=8)
    assert max(trace.distances) <= 1e-12


def test_raw_vs_convex_single_point_matches_rate():
    x = FinitePointSet.of([(0.0,), (1.0,)])
    trace = raw_vs_convex_average_run(CS1, [x], n_max=8)
    rate = convexification_rate(CS1, x, list(range(1, 9)), tolerance=1.0)
    assert trace.distances == pytest.approx(list(rate.distances), abs=1e-12)


# ---------------------------------------------------------------------------
# direct checks of the incrementally built traces


def _mutant_traces():
    space = _mass_to_first_mutant()
    unit = DiscreteDistribution.of([0.0, 1.0], [0.5, 0.5])
    family = [unit, DiscreteDistribution.delta(2.0)]
    x = ergodic_element(space, "distributions", 11)
    law = slln_law("distributions", "bernoulli")
    # tail tolerances loose enough that only the direct check can fail
    return {
        "convexify-rate": convexification_rate(space, unit, list(range(1, 9)), tolerance=1.0),
        "prop55": raw_vs_convex_average_run(space, family, n_max=8, tolerance=1.0),
        "ergodic": ergodic_run(CyclicTransformation(11, 7), x, 11, tolerance=1.0),
        **{
            f"slln {mode}": slln_run(space, law, n_max=64, mode=mode, tolerance=1.0)
            for mode in ("convex_track", "raw_track")
        },
    }


@pytest.mark.parametrize(
    "name", ["convexify-rate", "prop55", "ergodic", "slln convex_track", "slln raw_track"]
)
def test_direct_check_catches_non_associative_combination(name):
    trace = _mutant_traces()[name]
    assert trace.direct_check_gap > EXACT_TOL
    assert not trace.verdict
    assert trace.to_json_dict()["verdict"] == "fail"


def test_direct_check_gap_nan_fails():
    trace = ConvergenceTrace.build([1], [0.0], "x", 1.0, direct_check_gap=math.nan)
    assert not trace.verdict


# ---------------------------------------------------------------------------
# the running mean's weights, which it passes as checked terms


def test_running_means_pass_checked_binary_steps():
    passed = []

    def record(space, wc):
        assert isinstance(wc, WeightedCombination)
        passed.append(wc.terms)
        return combine(space, wc)

    terms = [(float(i % 5),) for i in range(100)]
    with mock.patch.object(limits, "combine", record):
        means = list(_running_means(E1, terms, []))
    assert len(means) == 100
    assert [t[0][0] for t in passed] == [(n - 1) / n for n in range(2, 101)]
    assert [t[1] for t in passed] == [(1.0 / n, x) for n, x in enumerate(terms[1:], 2)]
    assert [t[0][1] for t in passed] == means[:-1]


def test_running_mean_weights_pass_the_caller_check_up_to_a_million():
    # WeightedCombination.of's verdict on ((n-1)/n, 1/n) for every n: both
    # weights positive, and 0.0 + (n-1)/n + 1/n within WEIGHT_SUM_TOL of 1;
    # float64 division and addition round as Python floats do
    n = np.arange(2, 10 ** 6 + 1, dtype=float)
    first, second = (n - 1) / n, 1.0 / n
    assert (first > 0.0).all() and (second > 0.0).all()
    assert (np.abs(0.0 + first + second - 1.0) <= WEIGHT_SUM_TOL).all()


@given(st.integers(2, 10 ** 6))
@example(2)
@example(3)
@example(10 ** 6)
def test_running_mean_weights_are_kept_by_the_caller_check(n):
    terms = (((n - 1) / n, "running"), (1.0 / n, "x"))
    assert WeightedCombination.of(terms).terms == terms


# every trace command on each space with a default fixture, at default length
DEFAULT_TRACES = [
    ["convexify-rate", "--space", "euclidean"],
    ["convexify-rate", "--space", "euclidean", "--dim", "2"],
    ["convexify-rate", "--space", "power"],
    ["convexify-rate", "--space", "compact-sets"],
    # the d=2 lattice has about n^2/2 sites, so this one stops at n = 14
    ["convexify-rate", "--space", "compact-sets", "--dim", "2", "--n-max", "14"],
    ["convexify-rate", "--space", "distributions"],
    ["prop55", "--space", "euclidean"],
    ["prop55", "--space", "power"],
    ["prop55", "--space", "compact-sets"],
    ["ergodic", "--space", "euclidean"],
    ["ergodic", "--space", "power"],
    ["ergodic", "--space", "compact-sets"],
    ["ergodic", "--space", "distributions"],
    ["slln", "--space", "euclidean"],
    ["slln", "--space", "compact-sets"],
    ["slln", "--space", "distributions"],
    ["slln", "--space", "distributions", "--mode", "raw_track"],
]


@pytest.mark.parametrize("argv", DEFAULT_TRACES, ids=" ".join)
def test_default_traces_agree_with_direct_evaluation(argv):
    code, payload, _ = cli.run(cli.resolve_config(cli.build_parser().parse_args(argv)))
    assert float(payload["details"]["direct_check_gap"]) <= EXACT_TOL
    # the power space's orbit averages do not reach its only convex point
    assert code == (1 if argv[:3] == ["ergodic", "--space", "power"] else 0)


# ---------------------------------------------------------------------------
# weight perturbation bound


def test_weight_perturbation_equal_weights_trivial():
    assert weight_perturbation_check(E1, [0.5, 0.5], [0.5, 0.5], [(1.0,), (2.0,)], (0.0,))


def test_weight_perturbation_hyperspace_example():
    xs = [FinitePointSet.of([(0.0,), (2.0,)]), FinitePointSet.of([(4.0,)])]
    u = FinitePointSet.of([(0.0,)])
    # oracle by interval arithmetic: [1/2 [0,2] + 1/2 [4,4]] = [2,3],
    # [1/4 [0,2] + 3/4 [4,4]] = [3, 3.5]; hausdorff = 1; bound = 1/4*2 + 1/4*4
    assert weight_perturbation_check(CS1, [0.5, 0.5], [0.25, 0.75], xs, u)


def test_weight_perturbation_validates_weights():
    with pytest.raises(ValueError):
        weight_perturbation_check(E1, [0.5, 0.6], [0.5, 0.5], [(0.0,), (1.0,)], (0.0,))
    with pytest.raises(ValueError):
        weight_perturbation_check(E1, [1.5, -0.5], [0.5, 0.5], [(0.0,), (1.0,)], (0.0,))


@pytest.mark.parametrize(
    "space",
    [E1, CS1, power_space(2.0, 1), distribution_space()],
    ids=lambda s: s.name,
)
def test_weight_perturbation_suite(space):
    report = weight_perturbation_suite(space, trials=200, tol=space.default_tolerance, seed=17)
    assert report.passed, report.failures()


# ---------------------------------------------------------------------------
# scaling counterexample


def test_counterexample_matches_closed_forms():
    lhs, rhs, verdict = scaling_counterexample()
    assert lhs == pytest.approx(16.0 / 25.0, abs=1e-12)
    assert rhs == pytest.approx(3.0 / 5.0, abs=1e-12)
    assert verdict == "fails"


def test_counterexample_is_homogeneous():
    lhs, rhs, verdict = scaling_counterexample(scale=2.0)
    assert lhs == pytest.approx(1.28, abs=1e-12)
    assert rhs == pytest.approx(1.20, abs=1e-12)
    assert verdict == "fails"


def test_same_weights_would_satisfy_the_bound():
    # with equal weight vectors both sides vanish and the inequality holds
    space = power_space(2.0, 1)
    assert weight_perturbation_check(space, [0.8, 0.2], [0.8, 0.2], [(1.0,), (-0.5,)], (0.0,))


# ---------------------------------------------------------------------------
# rational-weight jensen


def test_rational_jensen_single_term_equality():
    phi = DistanceTo(E1, (0.0,))
    assert rational_jensen_check(E1, phi, [Fraction(1)], [(2.0,)])


def test_rational_jensen_euclidean_example():
    phi = DistanceTo(E1, (0.0,))
    assert rational_jensen_check(E1, phi, [Fraction(1, 3), Fraction(2, 3)], [(-1.0,), (1.0,)])


def test_rational_jensen_hyperspace_intervals():
    phi = DistanceTo(CS1, ConvexPolytope.interval(0.0, 0.0))
    xs = [ConvexPolytope.interval(0.0, 1.0), ConvexPolytope.interval(2.0, 3.0)]
    # oracle: combination [1/4 x1 + 3/4 x2] = [1.5, 2.5]; phi = 2.5
    # bound: 1/4 * 1 + 3/4 * 3 = 2.5
    assert rational_jensen_check(CS1, phi, [Fraction(1, 4), Fraction(3, 4)], xs)


def test_rational_jensen_validates_inputs():
    phi = DistanceTo(E1, (0.0,))
    with pytest.raises(ValueError):
        rational_jensen_check(E1, phi, [Fraction(1, 2)], [(0.0,)])
    with pytest.raises(TypeError):
        rational_jensen_check(E1, abs, [Fraction(1)], [(0.0,)])


@pytest.mark.parametrize(
    "space",
    [E1, CS1, power_space(2.0, 1), distribution_space()],
    ids=lambda s: s.name,
)
def test_rational_jensen_suite(space):
    report = rational_jensen_suite(space, trials=200, tol=space.default_tolerance, seed=23)
    assert report.passed, report.failures()
