import contextlib
import dataclasses
import io
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccspace import (
    AffineFunctional,
    ConvexPolytope,
    DistanceTo,
    FinitePointSet,
    FiniteSampleSpace,
    RandomElement,
    SupportMax,
    check_ce_characterization,
    check_ce_properties,
    compact_sets_space,
    conditional_expectation,
    convexify,
    delta_p,
    dense_sequence_for,
    distribution_space,
    dyadic_filtration,
    embed,
    euclidean_space,
    expectation,
    jensen_check,
    martingale_convergence_trace,
    martingale_sequence,
    mix_elements,
    power_space,
    psi_n,
)
from ccspace import cli, probability
from ccspace.embedding import combine_support_vectors, direction_set_for, sup_norm_gap
from ccspace.probability import (
    DenseSequence,
    Filtration,
    FinitePartition,
    expectation_identity_suite,
    conditional_suite,
    expected_distance,
    sample_partition,
    sample_random_element,
    sample_sample_space,
)

E1 = euclidean_space(1)
CS1 = compact_sets_space(1)


def ramp_element(space, n):
    omega = FiniteSampleSpace.uniform(n)
    return RandomElement(space, omega, {a: (float(i + 1),) for i, a in enumerate(omega.atoms)})


def test_sample_space_validation():
    with pytest.raises(ValueError):
        FiniteSampleSpace.of(("a", "b"), (0.5, 0.6))
    with pytest.raises(ValueError):
        FiniteSampleSpace.of(("a", "a"), (0.5, 0.5))
    with pytest.raises(ValueError):
        FiniteSampleSpace.of(("a", "b"), (1.0, 0.0))


@pytest.mark.parametrize("probs", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5),
                                   (math.inf, -math.inf)])
def test_sample_space_rejects_non_finite_probabilities(probs):
    # abs(nan - 1) > tol is false, so a NaN once passed the sum check
    with pytest.raises(ValueError):
        FiniteSampleSpace.of(("a", "b"), probs)


# ---------------------------------------------------------------------------
# lookups against the linear-scan and set-based oracles


def oracle_prob(omega, atom):
    return omega.probs[omega.atoms.index(atom)]


def oracle_block_of(part, atom):
    for block in part.blocks:
        if atom in block:
            return block
    raise KeyError(atom)


def oracle_refines(fine, coarse):
    return all(
        any(set(block) <= set(big) for big in coarse.blocks) for block in fine.blocks
    )


@st.composite
def sample_spaces(draw, prefix="w"):
    n = draw(st.integers(1, 9))
    atoms = draw(st.permutations([f"{prefix}{i}" for i in range(n)]))
    raw = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    probs = [r / sum(raw) for r in raw]
    probs[-1] = 1.0 - math.fsum(probs[:-1])
    return FiniteSampleSpace.of(atoms, probs)


def labelled_partition(omega, labels):
    blocks = {}
    for atom, label in zip(omega.atoms, labels):
        blocks.setdefault(label, []).append(atom)
    return FinitePartition.of(list(blocks.values()), omega)


@st.composite
def partition_pairs(draw):
    """(sample space, partition of it, second partition): a coarsening, an
    unrelated partition, or a partition of another sample space."""
    omega = draw(sample_spaces())
    n = len(omega)
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    fine = labelled_partition(omega, labels)
    kind = draw(st.sampled_from(("coarsening", "unrelated", "other-space")))
    if kind == "coarsening":
        merge = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        other = labelled_partition(omega, [merge[label] for label in labels])
    elif kind == "unrelated":
        other = labelled_partition(
            omega, draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    else:
        space = draw(sample_spaces(prefix=draw(st.sampled_from(("w", "v")))))
        m = len(space)
        other = labelled_partition(
            space, draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)))
    return omega, fine, other


@settings(max_examples=300, deadline=None)
@given(partition_pairs())
def test_lookups_match_oracles(case):
    omega, fine, other = case
    assert fine.refines(other) == oracle_refines(fine, other)
    assert other.refines(fine) == oracle_refines(other, fine)
    assert fine.refines(fine) and other.refines(other)
    for atom in omega.atoms:
        assert omega.prob(atom) == oracle_prob(omega, atom)
        assert fine.block_of(atom) == oracle_block_of(fine, atom)
    for part in (fine, other):
        for atom in {a for block in part.blocks for a in block} | {"x", "w99"}:
            try:
                expected = oracle_block_of(part, atom)
            except KeyError:
                with pytest.raises(KeyError):
                    part.block_of(atom)
            else:
                assert part.block_of(atom) == expected
    for atom in ("x", "v0", "w99"):
        if atom not in omega.atoms:
            with pytest.raises(ValueError):
                omega.prob(atom)


def test_lookup_maps_stay_out_of_equality_hash_and_repr():
    omega = FiniteSampleSpace.of(("b", "a"), (0.25, 0.75))
    part = FinitePartition.finest(omega)
    before = (repr(omega), repr(part), hash(omega), hash(part))
    assert omega.prob("a") == 0.75 and part.block_of("a") == ("a",)
    assert (repr(omega), repr(part), hash(omega), hash(part)) == before
    assert omega == FiniteSampleSpace.of(("b", "a"), (0.25, 0.75))
    assert part == FinitePartition.finest(FiniteSampleSpace.of(("b", "a"), (0.25, 0.75)))
    assert [f.name for f in dataclasses.fields(omega)] == ["atoms", "probs"]
    assert [f.name for f in dataclasses.fields(part)] == ["blocks"]


def test_random_element_requires_total_map():
    omega = FiniteSampleSpace.uniform(2)
    with pytest.raises(ValueError):
        RandomElement(E1, omega, {"w0": (0.0,)})


def test_partition_validation():
    omega = FiniteSampleSpace.uniform(4)
    with pytest.raises(ValueError):
        FinitePartition.of([("w0", "w1")], omega)
    with pytest.raises(ValueError):
        FinitePartition.of([("w0", "w1"), ("w1", "w2", "w3")], omega)
    part = FinitePartition.of([("w1", "w0"), ("w3", "w2")], omega)
    assert part.blocks == (("w0", "w1"), ("w2", "w3"))


def test_filtration_requires_refinement():
    omega = FiniteSampleSpace.uniform(4)
    coarse = FinitePartition.trivial(omega)
    fine = FinitePartition.finest(omega)
    Filtration.of([coarse, fine])
    with pytest.raises(ValueError):
        Filtration.of([fine, coarse])


# ---------------------------------------------------------------------------
# expectation


def test_expectation_hyperspace_interval():
    omega = FiniteSampleSpace.of(("a", "b"), (0.5, 0.5))
    x = RandomElement(
        CS1,
        omega,
        {"a": FinitePointSet.of([(0.0,), (1.0,)]), "b": FinitePointSet.of([(2.0,)])},
    )
    got = expectation(x)
    # oracle: 0.5 * [0,1] + 0.5 * [2,2] by interval arithmetic
    assert isinstance(got, ConvexPolytope)
    assert (got.lo, got.hi) == (1.0, 1.5)


def test_expectation_euclidean_weighted():
    omega = FiniteSampleSpace.of(("a", "b"), (1 / 3, 2 / 3))
    x = RandomElement(E1, omega, {"a": (0.0,), "b": (3.0,)})
    assert expectation(x)[0] == pytest.approx(2.0, abs=1e-12)


def test_expectation_power_space_constant_is_origin():
    space = power_space(2.0, 1)
    omega = FiniteSampleSpace.uniform(3)
    x = RandomElement(space, omega, {a: (4.2,) for a in omega.atoms})
    assert expectation(x) == (0.0,)


def test_expectation_contraction_all_instances():
    for space in (E1, CS1, power_space(2.0, 1), distribution_space()):
        report = expectation_identity_suite(space, trials=150, seed=5, tol=space.default_tolerance)
        assert report.passed, (space.name, report.failures())


def test_mixing_identity_example():
    omega = FiniteSampleSpace.uniform(2)
    x = RandomElement(E1, omega, {"w0": (0.0,), "w1": (4.0,)})
    y = RandomElement(E1, omega, {"w0": (2.0,), "w1": (-4.0,)})
    lam = 0.25
    lhs = expectation(mix_elements(lam, x, y))
    rhs = (lam * 2.0 + (1 - lam) * (0.25 * 2.0 + 0.75 * -1.0),)
    # oracle: E[lam X + (1-lam) Y] = lam EX + (1-lam) EY = .25*2 + .75*(-1)
    assert lhs[0] == pytest.approx(0.25 * 2.0 + 0.75 * -1.0, abs=1e-12)


def test_embedding_witness_for_conditional_expectation():
    # on each block, embed(E(X | G)) equals the conditional average of the
    # embedded convexifications
    space = compact_sets_space(2)
    rng = random.Random(19)
    for _ in range(50):
        omega = sample_sample_space(rng, 5)
        x = sample_random_element(space, omega, rng)
        g = sample_partition(rng, omega, 2)
        ce = conditional_expectation(x, g)
        hulls = {a: convexify(space, x.values[a]) for a in omega.atoms}
        dirs = direction_set_for(*(list(hulls.values()) + [ce.values[a] for a in omega.atoms]))
        for block in g.blocks:
            block_prob = math.fsum(omega.prob(a) for a in block)
            weights = [omega.prob(a) / block_prob for a in block]
            averaged = combine_support_vectors(
                weights, [embed(hulls[a], dirs) for a in block]
            )
            assert sup_norm_gap(embed(ce.values[block[0]], dirs), averaged) <= 1e-9


def test_embedding_witness_for_expectation():
    # embed(EX) equals the probability-weighted sum of embedded convexifications
    space = compact_sets_space(2)
    rng = random.Random(8)
    for _ in range(50):
        omega = sample_sample_space(rng, rng.randint(2, 4))
        x = sample_random_element(space, omega, rng)
        ex = expectation(x)
        hulls = [convexify(space, x.values[a]) for a in omega.atoms]
        dirs = direction_set_for(ex, *hulls)
        weighted = combine_support_vectors(
            list(omega.probs), [embed(h, dirs) for h in hulls]
        )
        assert sup_norm_gap(embed(ex, dirs), weighted) <= 1e-9


# ---------------------------------------------------------------------------
# dense sequences and psi_n


def test_psi_n_spec_examples():
    ds = DenseSequence(E1, lambda j: ((0.0,), (1.0,), (0.5,))[j] if j < 3 else (float(j),))
    assert psi_n((0.6,), ds, 2) == (0.5,)
    assert psi_n((0.0,), ds, 7) == (0.0,)
    # exact tie at distance 0.5: smallest index wins
    assert psi_n((0.5,), ds, 1) == (0.0,)


def test_psi_n_growth_bound_on_instances():
    for space in (E1, euclidean_space(2), power_space(2.0, 1), CS1, distribution_space()):
        ds = dense_sequence_for(space)
        u0 = ds.point_at(0)
        rng = random.Random(13)
        for _ in range(40):
            x = space.sample(rng)
            for n in (0, 1, 5, 20):
                proj = psi_n(x, ds, n)
                assert space.distance(u0, proj) <= 2.0 * space.distance(u0, x) + 1e-12


def test_dense_sequence_origin_must_be_convex():
    bad = DenseSequence(power_space(2.0, 1), lambda j: (1.0,))
    with pytest.raises(ValueError):
        bad.validate_origin()


def test_psi_n_rejects_negative_n():
    ds = dense_sequence_for(E1)
    with pytest.raises(ValueError):
        psi_n((0.0,), ds, -1)


# ---------------------------------------------------------------------------
# conditional expectation


def test_conditional_expectation_block_averages():
    omega = FiniteSampleSpace.uniform(4)
    x = RandomElement(E1, omega, {a: (float(i + 1),) for i, a in enumerate(omega.atoms)})
    g = FinitePartition.of([omega.atoms[:2], omega.atoms[2:]], omega)
    ce = conditional_expectation(x, g)
    assert [ce.values[a][0] for a in omega.atoms] == [1.5, 1.5, 3.5, 3.5]


def test_conditional_expectation_trivial_gives_expectation():
    omega = FiniteSampleSpace.of(("a", "b", "c"), (0.2, 0.3, 0.5))
    x = RandomElement(E1, omega, {"a": (1.0,), "b": (2.0,), "c": (4.0,)})
    ce = conditional_expectation(x, FinitePartition.trivial(omega))
    ex = expectation(x)
    assert all(ce.values[a] == ex for a in omega.atoms)


def test_conditional_expectation_finest_convexifies_pointwise():
    omega = FiniteSampleSpace.uniform(3)
    values = {
        "w0": FinitePointSet.of([(0.0,), (1.0,)]),
        "w1": FinitePointSet.of([(2.0,)]),
        "w2": FinitePointSet.of([(-1.0,), (3.0,)]),
    }
    x = RandomElement(CS1, omega, values)
    ce = conditional_expectation(x, FinitePartition.finest(omega))
    for a in omega.atoms:
        assert CS1.distance(ce.values[a], convexify(CS1, values[a])) <= 1e-12


def test_ce_characterization_accepts_conditional_expectation():
    omega = FiniteSampleSpace.uniform(4)
    x = RandomElement(E1, omega, {a: (float(i * i),) for i, a in enumerate(omega.atoms)})
    g = FinitePartition.of([omega.atoms[:2], omega.atoms[2:]], omega)
    ce = conditional_expectation(x, g)
    assert check_ce_characterization(x, ce, g, (0.0,))


def test_ce_characterization_rejects_wrong_candidate():
    omega = FiniteSampleSpace.uniform(4)
    x = RandomElement(E1, omega, {a: (float(i),) for i, a in enumerate(omega.atoms)})
    g = FinitePartition.of([omega.atoms[:2], omega.atoms[2:]], omega)
    wrong = RandomElement(E1, omega, {a: (0.0,) for a in omega.atoms})
    result = check_ce_characterization(x, wrong, g, (0.0,))
    assert not result
    assert result.witness_union is not None


def test_ce_characterization_constant_element():
    omega = FiniteSampleSpace.uniform(3)
    c = (2.5,)
    x = RandomElement(E1, omega, {a: c for a in omega.atoms})
    g = FinitePartition.trivial(omega)
    assert check_ce_characterization(x, x, g, c)


def test_ce_properties_euclidean_dyadic():
    omega = FiniteSampleSpace.uniform(8)
    x = RandomElement(E1, omega, {a: (float(2 ** i % 11),) for i, a in enumerate(omega.atoms)})
    filt = dyadic_filtration(omega)
    report = check_ce_properties(x, filt.partitions[1], filt.partitions[2], tol=1e-12)
    assert report.passed, report.failures()


def test_ce_properties_hyperspace_intervals():
    omega = FiniteSampleSpace.uniform(4)
    x = RandomElement(
        CS1,
        omega,
        {a: FinitePointSet.of([(0.0,), (float(i + 1),)]) for i, a in enumerate(omega.atoms)},
    )
    g1 = FinitePartition.trivial(omega)
    g2 = FinitePartition.of([omega.atoms[:2], omega.atoms[2:]], omega)
    report = check_ce_properties(x, g1, g2, tol=1e-9)
    assert report.passed, report.failures()


def test_ce_properties_rejects_non_nested_partitions():
    omega = FiniteSampleSpace.uniform(4)
    x = ramp_element(E1, 4)
    g1 = FinitePartition.of([("w0", "w1"), ("w2", "w3")], omega)
    g2 = FinitePartition.of([("w0", "w2"), ("w1", "w3")], omega)
    with pytest.raises(ValueError):
        check_ce_properties(x, g1, g2)


def test_conditional_expectation_zero_probability_guard():
    omega = FiniteSampleSpace.uniform(2)
    x = RandomElement(E1, omega, {"w0": (0.0,), "w1": (1.0,)})
    g = FinitePartition.finest(omega)
    # forged sample space bypassing validation to hit the guard
    broken = FiniteSampleSpace(("w0", "w1"), (1.0, 0.0))
    bad = RandomElement(E1, broken, dict(x.values))
    with pytest.raises(ValueError):
        conditional_expectation(bad, g)


def test_dominated_convergence_for_conditional_expectation():
    omega = FiniteSampleSpace.uniform(8)
    x = ramp_element(E1, 8)
    g = FinitePartition.of([omega.atoms[:4], omega.atoms[4:]], omega)
    target = conditional_expectation(x, g)
    gaps = []
    for n in (1, 2, 4, 8, 16, 32):
        shifted = x.map_values(lambda v, n=n: (v[0] + 1.0 / n,))
        ce = conditional_expectation(shifted, g)
        gaps.append(max(E1.distance(ce.values[a], target.values[a]) for a in omega.atoms))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1.0 / 32 + 1e-12


# ---------------------------------------------------------------------------
# martingales


def test_martingale_sequence_dyadic_ramp():
    x = ramp_element(E1, 4)
    filt = dyadic_filtration(x.sample_space)
    seq = martingale_sequence(x, filt)
    atoms = x.sample_space.atoms
    assert [seq[0].values[a][0] for a in atoms] == [2.5] * 4
    assert [seq[1].values[a][0] for a in atoms] == [1.5, 1.5, 3.5, 3.5]
    assert [seq[2].values[a][0] for a in atoms] == [1.0, 2.0, 3.0, 4.0]


def test_martingale_last_term_is_pointwise_convexification():
    omega = FiniteSampleSpace.uniform(4)
    x = RandomElement(
        CS1,
        omega,
        {a: FinitePointSet.of([(0.0,), (float(i + 1),)]) for i, a in enumerate(omega.atoms)},
    )
    seq = martingale_sequence(x, dyadic_filtration(omega))
    for a in omega.atoms:
        assert CS1.distance(seq[-1].values[a], convexify(CS1, x.values[a])) <= 1e-12


def test_martingale_trace_16_atoms_strictly_decreasing():
    x = ramp_element(E1, 16)
    filt = dyadic_filtration(x.sample_space)
    for p in (1, 2):
        trace = martingale_convergence_trace(x, filt, p=p)
        assert all(a > b for a, b in zip(trace, trace[1:])), trace
        assert trace[-1] <= 1e-12
    # oracle for p = 1: mean absolute deviation within dyadic blocks
    trace1 = martingale_convergence_trace(x, filt, p=1)
    assert trace1 == pytest.approx([4.0, 2.0, 1.0, 0.5, 0.0], abs=1e-12)


def test_martingale_reverse_trace_reaches_expectation():
    x = ramp_element(E1, 16)
    filt = dyadic_filtration(x.sample_space)
    reverse = martingale_convergence_trace(x, filt, p=2, direction="reverse")
    assert reverse[-1] <= 1e-12
    ex = expectation(x)
    ce_trivial = conditional_expectation(x, filt.partitions[0])
    assert all(E1.distance(ce_trivial.values[a], ex) <= 1e-12 for a in x.sample_space.atoms)


def nan_distance_space():
    return dataclasses.replace(E1, name="euclid-nan-distance", distance=lambda a, b: math.nan)


def test_martingale_guard_raises_on_nan_distance():
    x = ramp_element(nan_distance_space(), 4)
    with pytest.raises(ValueError, match="martingale property violated by nan"):
        martingale_sequence(x, dyadic_filtration(x.sample_space))


def test_conditional_checks_fail_on_nan_distance():
    space = nan_distance_space()
    report = conditional_suite(space, trials=5, seed=1)
    assert not report.checks["conditional_contraction"].passed
    x = ramp_element(space, 4)
    g = FinitePartition.of([("w0", "w1"), ("w2", "w3")], x.sample_space)
    result = check_ce_characterization(x, conditional_expectation(x, g), g, (0.0,))
    assert not result and math.isnan(result.worst_gap) and result.witness_union is not None
    props = check_ce_properties(x, FinitePartition.trivial(x.sample_space), g)
    assert all(not c.passed for c in props.checks.values())


def test_martingale_distances_follow_one_sequence():
    x = ramp_element(E1, 16)
    filt = dyadic_filtration(x.sample_space)
    seq = martingale_sequence(x, filt)
    for p in (1, 2):
        for direction in ("forward", "reverse"):
            assert probability.martingale_distances(seq, p, direction) == \
                martingale_convergence_trace(x, filt, p, direction)


SEEDED64 = pathlib.Path(__file__).parent / "golden" / "seeded64-euclidean.fixture"


def test_martingale_command_conditions_once_per_level(monkeypatch):
    # L levels: L conditional expectations plus L - 1 for the martingale
    # guard; both traces reuse that sequence
    calls = []
    original = probability.conditional_expectation

    def counted(x, g):
        calls.append(len(g.blocks))
        return original(x, g)

    monkeypatch.setattr(probability, "conditional_expectation", counted)
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["martingale", "--space", "euclidean", "--fixture-file", str(SEEDED64)])
    assert code == 0
    levels = 7  # 64 atoms: blocks of 64, 32, ..., 1
    assert len(calls) == 2 * levels - 1


def test_martingale_trace_rejects_bad_direction_and_p():
    x = ramp_element(E1, 4)
    filt = dyadic_filtration(x.sample_space)
    with pytest.raises(ValueError):
        martingale_convergence_trace(x, filt, p=3)
    with pytest.raises(ValueError):
        martingale_convergence_trace(x, filt, direction="sideways")


# ---------------------------------------------------------------------------
# jensen


def test_jensen_equality_for_constant_convex_element():
    omega = FiniteSampleSpace.uniform(3)
    box = ConvexPolytope.interval(0.0, 1.0)
    x = RandomElement(CS1, omega, {a: box for a in omega.atoms})
    phi = DistanceTo(CS1, ConvexPolytope.interval(5.0, 5.0))
    report = jensen_check(x, phi)
    assert abs(report.checks["jensen"].worst_violation) <= 1e-12


def test_jensen_hyperspace_spec_example():
    omega = FiniteSampleSpace.of(("a", "b"), (0.5, 0.5))
    x = RandomElement(
        CS1,
        omega,
        {"a": FinitePointSet.of([(0.0,), (1.0,)]), "b": FinitePointSet.of([(4.0,)])},
    )
    origin = ConvexPolytope.interval(0.0, 0.0)
    phi = DistanceTo(CS1, origin)
    ex = expectation(x)
    assert (ex.lo, ex.hi) == (2.0, 2.5)
    assert phi(ex) == pytest.approx(2.5, abs=1e-12)
    mean_phi = 0.5 * phi(x.values["a"]) + 0.5 * phi(x.values["b"])
    assert mean_phi == pytest.approx(2.5, abs=1e-12)
    report = jensen_check(x, phi)
    assert report.passed


def test_jensen_euclidean_strict_inequality():
    omega = FiniteSampleSpace.of(("a", "b"), (0.5, 0.5))
    x = RandomElement(E1, omega, {"a": (-1.0,), "b": (1.0,)})
    phi = DistanceTo(E1, (0.0,))
    assert phi(expectation(x)) == pytest.approx(0.0, abs=1e-15)
    report = jensen_check(x, phi)
    assert report.passed


def test_jensen_rejects_uncertified_functional():
    x = ramp_element(E1, 2)
    with pytest.raises(TypeError):
        jensen_check(x, lambda v: v[0] ** 2)


def test_support_max_functional_is_convex_certified():
    omega = FiniteSampleSpace.uniform(2)
    x = RandomElement(
        CS1,
        omega,
        {"w0": FinitePointSet.of([(0.0,), (2.0,)]), "w1": FinitePointSet.of([(-3.0,)])},
    )
    phi = SupportMax.of([(1.0,), (-1.0,)], [0.0, 0.5])
    report = jensen_check(x, phi, conditional=FinitePartition.trivial(omega))
    assert report.passed


def test_conditional_jensen_suite_zero_violations():
    for space in (E1, CS1):
        report = conditional_suite(space, trials=150, seed=9, tol=1e-9)
        assert report.passed, (space.name, report.failures())


def test_support_affine_commutes_with_conditioning():
    # f(E(X | G)) = E(f(X) | G) blockwise for support-direction functionals
    rng = random.Random(21)
    f = AffineFunctional((1.0,))
    for _ in range(60):
        omega = sample_sample_space(rng, 5)
        x = sample_random_element(CS1, omega, rng)
        g = sample_partition(rng, omega, 2)
        ce = conditional_expectation(x, g)
        for block in g.blocks:
            block_prob = math.fsum(omega.prob(a) for a in block)
            rhs = math.fsum(omega.prob(a) * f(x.values[a]) for a in block) / block_prob
            assert f(ce.values[block[0]]) == pytest.approx(rhs, abs=1e-9)


def test_delta_p_and_expected_distance():
    omega = FiniteSampleSpace.of(("a", "b"), (0.25, 0.75))
    x = RandomElement(E1, omega, {"a": (0.0,), "b": (2.0,)})
    y = RandomElement(E1, omega, {"a": (1.0,), "b": (-2.0,)})
    assert expected_distance(x, y) == pytest.approx(0.25 * 1 + 0.75 * 4, abs=1e-12)
    assert delta_p(x, y, p=1) == pytest.approx(3.25, abs=1e-12)
    assert delta_p(x, y, p=2) == pytest.approx(math.sqrt(0.25 * 1 + 0.75 * 16), abs=1e-12)
