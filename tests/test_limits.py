import math
from fractions import Fraction

import pytest

from ccspace import (
    ConvexPolytope,
    CyclicTransformation,
    DistanceTo,
    EnumerationCapError,
    FinitePointSet,
    FiniteSampleSpace,
    RandomElement,
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
from ccspace.limits import (
    ConvergenceTrace,
    rational_jensen_suite,
    weight_perturbation_suite,
)
from ccspace.fixtures import ergodic_element

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


@pytest.mark.parametrize("tail", [[math.nan, 0.01], [0.01, math.nan]])
def test_trace_with_nan_in_tail_fails(tail):
    assert not ConvergenceTrace.build([1, 2, 3], [0.5, *tail], "x", 0.05, window=2).verdict


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
