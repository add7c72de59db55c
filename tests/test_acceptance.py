"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime budget is asserted, not just reported.
"""

import time

import pytest

from ccspace import (
    ConvexPolytope,
    CyclicTransformation,
    FinitePointSet,
    FiniteSampleSpace,
    RandomElement,
    check_axioms,
    check_cancellation,
    check_ce_characterization,
    compact_sets_space,
    conditional_expectation,
    convexification_rate,
    convexify,
    distribution_space,
    dyadic_filtration,
    embed,
    embedding_suite,
    ergodic_run,
    euclidean_space,
    expectation,
    martingale_convergence_trace,
    martingale_sequence,
    mix_elements,
    power_space,
    scaling_counterexample,
    slln_run,
)
from ccspace.core import trial_rng
from ccspace.embedding import combine_support_vectors, direction_set_for, sup_norm_gap
from ccspace.limits import rational_jensen_suite, weight_perturbation_suite
from ccspace.probability import (
    FinitePartition,
    conditional_suite,
    expectation_identity_suite,
    sample_random_element,
    sample_sample_space,
)

E1 = euclidean_space(1)
CS1 = compact_sets_space(1)

FOUR_INSTANCES = [
    euclidean_space(2),
    power_space(2.0, 1),
    compact_sets_space(1),
    distribution_space(),
]


def announce(number, name):
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def all_partitions(items):
    """Every set partition, by recursive block insertion."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [[first] + block] + smaller[i + 1 :]
        yield [[first]] + smaller


def test_criterion_01_axiom_suite_four_instances():
    started = time.monotonic()
    for space in FOUR_INSTANCES:
        report = check_axioms(space, trials=1000, tol=space.default_tolerance, seed=7)
        assert report.passed, (space.name, report.failures())
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"axiom suites took {elapsed:.1f}s"
    announce(1, "axiom suite, four instances, 1000 trials")


def test_criterion_02_cancellation_law():
    for space in (euclidean_space(2), CS1):
        report = check_cancellation(space, trials=1000, tol=1e-9, seed=11)
        assert report.passed, (space.name, report.failures())

    power = power_space(2.0, 1)
    raw = check_cancellation(power, trials=200, seed=11, convex_points=False)
    assert not raw.passed
    # the discrepancy is exactly ((1-lam) - (1-lam)^2) d(y, z) on raw points
    lam, y, z = 0.25, (1.0,), (-3.0,)
    lhs = power.distance(
        power.combine_terms([(lam, (2.0,)), (1 - lam, y)]),
        power.combine_terms([(lam, (2.0,)), (1 - lam, z)]),
    )
    assert lhs == pytest.approx((1 - lam) ** 2 * abs(y[0] - z[0]), abs=1e-12)
    announce(2, "cancellation equality plus power-space expected-fail")


def test_criterion_03_counterexample_closed_forms():
    lhs, rhs, verdict = scaling_counterexample()
    assert lhs == pytest.approx(16.0 / 25.0, abs=1e-12)
    assert rhs == pytest.approx(3.0 / 5.0, abs=1e-12)
    assert verdict == "fails"
    announce(3, "weight-perturbation counterexample 0.64 vs 0.60")


def test_criterion_04_convexification_rate_exact():
    started = time.monotonic()
    x = FinitePointSet.of([(0.0,), (1.0,)])
    trace = convexification_rate(CS1, x, list(range(1, 65)), tolerance=1.0)
    for n, d in zip(trace.indices, trace.distances):
        assert abs(d * 2 * n - 1.0) <= 1e-12, (n, d)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"rate trace took {elapsed:.2f}s"
    announce(4, "two-point convexification rate 1/(2n), n = 1..64")


def test_criterion_05_embedding_witness():
    started = time.monotonic()
    report = embedding_suite(compact_sets_space(2), trials=1000, seed=2)
    assert report.checks["isometry"].passed
    assert report.checks["isometry"].worst_violation <= 1e-9
    assert report.checks["affinity"].worst_violation <= 1e-12
    assert report.checks["linear_growth"].passed
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"embedding suite took {elapsed:.1f}s"
    announce(5, "support embedding isometry and affinity, 1000 pairs")


def test_criterion_06_expectation_identities():
    # mixing and contraction on every instance
    for space in FOUR_INSTANCES:
        report = expectation_identity_suite(space, trials=1000, tol=1e-9, seed=5)
        assert report.passed, (space.name, report.failures())

    # embedding witness on polytope-valued elements
    space = compact_sets_space(2)
    for t in range(1000):
        rng = trial_rng(50, t)
        omega = sample_sample_space(rng, rng.randint(2, 4))
        x = sample_random_element(space, omega, rng)
        ex = expectation(x)
        hulls = [convexify(space, x.values[a]) for a in omega.atoms]
        dirs = direction_set_for(ex, *hulls)
        weighted = combine_support_vectors(list(omega.probs), [embed(h, dirs) for h in hulls])
        assert sup_norm_gap(embed(ex, dirs), weighted) <= 1e-9
    announce(6, "expectation contraction, mixing, embedding witness")


def test_criterion_07_conditional_expectation_exhaustive():
    omega = FiniteSampleSpace.uniform(8)
    values = [(1.0,), (4.0,), (-2.0,), (7.0,), (0.5,), (3.0,), (-5.0,), (2.0,)]
    x = RandomElement(E1, omega, dict(zip(omega.atoms, values)))
    rotated = RandomElement(
        E1, omega, {a: x.values[omega.atoms[(i + 1) % 8]] for i, a in enumerate(omega.atoms)}
    )
    ex = expectation(x)
    finest = FinitePartition.finest(omega)
    anchor = (0.0,)
    count = 0
    for blocks in all_partitions(omega.atoms):
        g = FinitePartition.of(blocks, omega)
        ce = conditional_expectation(x, g)

        # iterated expectation
        assert E1.distance(expectation(ce), ex) <= 1e-9

        # measurable elements condition to their (convexified) values
        measurable = RandomElement(
            E1, omega, {a: x.values[g.block_of(a)[0]] for a in omega.atoms}
        )
        ce_meas = conditional_expectation(measurable, g)
        assert all(
            E1.distance(ce_meas.values[a], measurable.values[a]) <= 1e-9
            for a in omega.atoms
        )

        # mixing commutes with conditioning
        lam = 0.375
        lhs = conditional_expectation(mix_elements(lam, x, rotated), g)
        rhs = mix_elements(lam, ce, conditional_expectation(rotated, g))
        assert all(E1.distance(lhs.values[a], rhs.values[a]) <= 1e-9 for a in omega.atoms)

        # tower in both orders against the finest refinement
        assert all(
            E1.distance(conditional_expectation(ce, finest).values[a], ce.values[a]) <= 1e-9
            for a in omega.atoms
        )
        pulled = conditional_expectation(conditional_expectation(x, finest), g)
        assert all(E1.distance(pulled.values[a], ce.values[a]) <= 1e-9 for a in omega.atoms)

        # block-union characterization accepts the conditional expectation
        assert check_ce_characterization(x, ce, g, anchor, tol=1e-9).passed
        count += 1
    assert count == 4140  # Bell(8)

    # and rejects a wrong candidate
    wrong = RandomElement(E1, omega, {a: anchor for a in omega.atoms})
    g2 = FinitePartition.of([omega.atoms[:4], omega.atoms[4:]], omega)
    assert not check_ce_characterization(x, wrong, g2, anchor, tol=1e-9).passed

    # conditional Jensen, certified functionals, zero violations
    for space in (E1, CS1):
        report = conditional_suite(space, trials=1000, tol=1e-9, seed=9)
        assert report.passed, (space.name, report.failures())
    announce(7, "conditional expectation on all 4140 partitions of 8 atoms")


def test_criterion_08_martingale_16_atoms():
    omega = FiniteSampleSpace.uniform(16)
    x = RandomElement(
        CS1,
        omega,
        {a: FinitePointSet.of([(0.0,), (float(i + 1),)]) for i, a in enumerate(omega.atoms)},
    )
    filt = dyadic_filtration(omega)
    seq = martingale_sequence(x, filt, tol=1e-12)
    for a in omega.atoms:
        assert CS1.distance(seq[-1].values[a], convexify(CS1, x.values[a])) <= 1e-12

    for p in (1, 2):
        forward, reverse = martingale_convergence_trace(x, filt, p=p)
        assert all(a > b for a, b in zip(forward, forward[1:])), forward
        assert forward[-1] <= 1e-12
        assert reverse[-1] <= 1e-12
    announce(8, "martingale traces on the 16-atom dyadic filtration")


def test_criterion_09_strong_law_fixtures():
    started = time.monotonic()
    euclid_trace = slln_run(
        E1, [(0.5, (0.0,)), (0.5, (1.0,))], n_max=10_000, seed=20240720
    )
    assert euclid_trace.final_distance < 0.05

    law = [
        (0.5, ConvexPolytope.interval(0.0, 1.0)),
        (0.5, ConvexPolytope.interval(2.0, 2.0)),
    ]
    set_trace = slln_run(CS1, law, n_max=10_000, seed=3)
    assert set_trace.final_distance < 0.05
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"strong-law runs took {elapsed:.1f}s"
    announce(9, "strong law, euclidean and compact-sets, n = 10^4")


def test_criterion_10_ergodic_rotation():
    omega = FiniteSampleSpace.uniform(1000)
    x = RandomElement(
        CS1,
        omega,
        {a: ConvexPolytope.interval(0.0, 1.0 + (i % 7)) for i, a in enumerate(omega.atoms)},
    )
    trace = ergodic_run(CyclicTransformation(1000, 7), x, n_max=1000, tolerance=1e-12)
    assert trace.distances[-1] <= 1e-12
    spread = max(
        CS1.distance(v, expectation(x)) for v in list(x.values.values())[:50]
    )
    assert max(trace.distances) <= spread + 1e-9  # never diverges past the data spread
    assert trace.verdict
    announce(10, "ergodic rotation N=1000, k=7, exact at the full orbit")


def test_criterion_11_perturbation_and_rational_jensen():
    for space in FOUR_INSTANCES:
        perturbation = weight_perturbation_suite(space, trials=1000, tol=1e-9, seed=17)
        assert perturbation.passed, (space.name, perturbation.failures())
        jensen = rational_jensen_suite(space, trials=1000, tol=1e-9, seed=23)
        assert jensen.passed, (space.name, jensen.failures())
    announce(11, "weight perturbation and rational Jensen, zero violations")
