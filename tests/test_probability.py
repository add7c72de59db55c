import contextlib
import copy
import dataclasses
import io
import itertools
import math
import pathlib
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccspace import (
    AffineFunctional,
    ConvexPolytope,
    DistanceTo,
    FinitePointSet,
    FiniteSampleSpace,
    CombinationError,
    RandomElement,
    SupportMax,
    WeightedCombination,
    check_ce_characterization,
    check_ce_properties,
    combine,
    compact_sets_space,
    conditional_expectation,
    convexify,
    delta_p,
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
)
from ccspace import cli, fixtures, get_space, probability
from ccspace.embedding import combine_support_vectors, direction_set_for, sup_norm_gap
from ccspace.axioms import AxiomReport, CheckResult, nan_max
from ccspace.core import trial_rng
from ccspace.probability import (
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


def test_random_element_rejects_a_label_that_is_no_atom():
    omega = FiniteSampleSpace.uniform(2)
    with pytest.raises(ValueError, match=r"^'zz' is not an atom of the sample space$"):
        RandomElement(E1, omega, {"w0": (0.0,), "zz": (2.0,), "w1": (1.0,)})
    # a missing atom is named first, as before
    with pytest.raises(ValueError, match=r"^values missing for atoms \['w1'\]$"):
        RandomElement(E1, omega, {"w0": (0.0,), "zz": (2.0,)})


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
    assert check_ce_characterization(x, ce, g, (0.0,)).passed


def test_ce_characterization_rejects_wrong_candidate():
    omega = FiniteSampleSpace.uniform(4)
    x = RandomElement(E1, omega, {a: (float(i),) for i, a in enumerate(omega.atoms)})
    g = FinitePartition.of([omega.atoms[:2], omega.atoms[2:]], omega)
    wrong = RandomElement(E1, omega, {a: (0.0,) for a in omega.atoms})
    result = check_ce_characterization(x, wrong, g, (0.0,))
    assert not result.passed
    assert result.witness is not None


def test_ce_characterization_constant_element():
    omega = FiniteSampleSpace.uniform(3)
    c = (2.5,)
    x = RandomElement(E1, omega, {a: c for a in omega.atoms})
    g = FinitePartition.trivial(omega)
    assert check_ce_characterization(x, x, g, c).passed


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_dyadic_filtration_is_the_checked_halving(n):
    # the partitions are built without FinitePartition.of and Filtration.of;
    # they must be what those give, for labels in any order
    labels = [f"a{i}" for i in range(n)]
    random.Random(n).shuffle(labels)
    omega = FiniteSampleSpace.of(labels, [1.0 / n] * n)
    expected = []
    size = n
    while size >= 1:
        blocks = [labels[i:i + size] for i in range(0, n, size)]
        expected.append(FinitePartition.of(blocks, omega))
        size //= 2
    assert dyadic_filtration(omega) == Filtration.of(expected)


def test_conditional_expectation_matches_a_built_element():
    # the element conditional_expectation builds from its values in atom order
    # equals the one the constructor builds from the atom -> value map
    rng = random.Random(19)
    omega = sample_sample_space(rng, 6)
    x = sample_random_element(CS1, omega, rng)
    g = sample_partition(rng, omega, 3)
    ce = conditional_expectation(x, g)
    rebuilt = RandomElement(CS1, omega, dict(ce.values))
    assert ce == rebuilt and ce.ordered == rebuilt.ordered
    assert list(ce.values) == list(omega.atoms)
    assert ce.ordered_convexified == rebuilt.ordered_convexified
    with pytest.raises(TypeError):
        ce.values["w0"] = ce.values["w1"]


@pytest.mark.parametrize("build", ["conditional_expectation", "mix_elements"])
def test_built_elements_have_a_read_only_label_view_of_their_values(build):
    rng = random.Random(20)
    omega = sample_sample_space(rng, 5)
    x = sample_random_element(CS1, omega, rng)
    y = sample_random_element(CS1, omega, rng)
    if build == "conditional_expectation":
        z = conditional_expectation(x, sample_partition(rng, omega, 2))
    else:
        z = mix_elements(0.25, x, y)
    assert z.values == dict(zip(omega.atoms, z.ordered))
    assert list(z.values) == list(omega.atoms)
    assert z.values is z.values
    with pytest.raises(TypeError):
        z.values["w0"] = z.ordered[1]
    with pytest.raises(TypeError):
        del z.values["w0"]


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


def test_partition_of_rejects_a_label_outside_the_sample_space():
    omega = FiniteSampleSpace.uniform(3)
    with pytest.raises(ValueError) as caught:
        FinitePartition.of([("w0", "zz"), ("w1", "w2")], omega)
    assert str(caught.value) == "'zz' is not an atom of the sample space"
    with pytest.raises(ValueError) as prob_error:
        omega.prob("zz")
    assert str(prob_error.value) == str(caught.value)


def test_conditional_expectation_rejects_labels_of_another_sample_space():
    omega = FiniteSampleSpace.uniform(4)
    x = RandomElement(E1, omega, {a: (float(i),) for i, a in enumerate(omega.atoms)})
    other = FiniteSampleSpace.of(["w0", "w1", "zz", "w3"], [0.25] * 4)
    with pytest.raises(ValueError, match="^'zz' is not an atom of the sample space$"):
        conditional_expectation(x, FinitePartition.finest(other))
    # a partition of fewer atoms leaves values missing, as the constructor says
    part = FiniteSampleSpace.of(["w0", "w2"], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"^values missing for atoms \['w1', 'w3'\]$"):
        conditional_expectation(x, FinitePartition.finest(part))


def _checked_terms(run):
    """The terms of each checked combination (a ``WeightedCombination``) that
    ``run()`` hands to ``probability.combine``, in call order."""
    passed = []

    def record(space, wc):
        assert isinstance(wc, WeightedCombination)
        passed.append(wc.terms)
        return combine(space, wc)

    with mock.patch.object(probability, "combine", record):
        run()
    return passed


def _skewed_space(n, skew, mass_step, seed):
    """``n`` atoms whose weights spread over ``skew`` decades, divided by
    their exact sum and scaled by 1 + mass_step * 1e-13."""
    rng = random.Random(seed)
    weights = [10.0 ** rng.uniform(-skew, 0.0) for _ in range(n)]
    total = math.fsum(weights)
    scale = 1.0 + mass_step * 1e-13
    return FiniteSampleSpace.of([f"w{i}" for i in range(n)], [w / total * scale for w in weights])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4096), skew=st.integers(0, 300), mass_step=st.integers(-4, 4),
       n_blocks=st.integers(1, 4096), seed=st.integers(0, 2 ** 32 - 1))
@example(n=4096, skew=300, mass_step=4, n_blocks=1, seed=0)
@example(n=4096, skew=300, mass_step=-4, n_blocks=4096, seed=1)
@example(n=4096, skew=0, mass_step=4, n_blocks=2, seed=2)
def test_derived_weights_pass_the_caller_check(n, skew, mass_step, n_blocks, seed):
    """Conditional expectation and expectation pass their weights to
    ``combine`` as checked terms; ``WeightedCombination.of`` would keep
    each term list as it is.

    A block's weights p_i / P(block) sum to 1 within about (k + 1) ulps for
    k atoms, whatever the mass.  The expectation's weights are the
    probabilities, whose exact sum ``FiniteSampleSpace.of`` checks; here it
    is within about 4e-13 of 1, so their float sum, off by at most
    (n - 1) * 2**-53 more, stays inside ``WEIGHT_SUM_TOL``.
    """
    omega = _skewed_space(n, skew, mass_step, seed)
    rng = random.Random(seed)
    blocks = [[] for _ in range(min(n_blocks, n))]
    for a in omega.atoms:
        blocks[rng.randrange(len(blocks))].append(a)
    g = FinitePartition.of([b for b in blocks if b], omega)
    x = RandomElement._of_ordered(E1, omega, tuple((float(i % 7),) for i in range(n)))
    per_block = _checked_terms(lambda: conditional_expectation(x, g))
    assert len(per_block) == len(g.blocks)
    (mean,) = _checked_terms(lambda: expectation(x))
    for terms in (*per_block, mean):
        assert WeightedCombination.of(terms).terms == terms


def test_expectation_takes_the_exact_mass_check_of_the_sample_space():
    # 4,096 probabilities whose exact sum is 9.0e-13 over 1, which
    # FiniteSampleSpace.of accepts; their float sum, 1.3e-12 over, is
    # what WeightedCombination.of would have judged
    t = 1.2e-16
    probs = [1.0 + 0.9e-12 - 4095 * t] + [t] * 4095
    omega = FiniteSampleSpace.of([f"w{i}" for i in range(4096)], probs)
    with pytest.raises(CombinationError, match="^weights sum to 1.0000000000013"):
        WeightedCombination.of(zip(omega.probs, omega.atoms))
    values = tuple((float(i % 3),) for i in range(4096))
    x = RandomElement._of_ordered(E1, omega, values)
    assert expectation(x) == (math.fsum(p * v for p, (v,) in zip(probs, values)),)


@pytest.mark.parametrize("space_name, dim", [
    ("euclidean", 2), ("power", 1), ("compact-sets", 1), ("compact-sets", 2), ("distributions", 1)])
def test_mix_elements_keeps_the_zero_term_drop_of_caller_weights(space_name, dim):
    # lam is a caller's weight: WeightedCombination.of drops the zero term,
    # and combine returns the one left, the very value object
    space = get_space(space_name, dim=dim)
    rng = random.Random(11)
    omega = sample_sample_space(rng, 5)
    x, y = (sample_random_element(space, omega, rng) for _ in range(2))
    for lam, kept in ((1.0, x), (0.0, y)):
        mixed = mix_elements(lam, x, y)
        assert all(m is k for m, k in zip(mixed.ordered, kept.ordered, strict=True))


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
        shifted = RandomElement(E1, omega, {a: (v[0] + 1.0 / n,) for a, v in x.values.items()})
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
        trace, _ = martingale_convergence_trace(x, filt, p=p)
        assert all(a > b for a, b in zip(trace, trace[1:])), trace
        assert trace[-1] <= 1e-12
    # oracle for p = 1: mean absolute deviation within dyadic blocks
    trace1, _ = martingale_convergence_trace(x, filt, p=1)
    assert trace1 == pytest.approx([4.0, 2.0, 1.0, 0.5, 0.0], abs=1e-12)


def test_martingale_reverse_trace_reaches_expectation():
    x = ramp_element(E1, 16)
    filt = dyadic_filtration(x.sample_space)
    _, reverse = martingale_convergence_trace(x, filt, p=2)
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
    # the trace builds its sequence through the same guard
    with pytest.raises(ValueError, match="martingale property violated by nan"):
        martingale_convergence_trace(x, dyadic_filtration(x.sample_space))


def test_conditional_checks_fail_on_nan_distance():
    space = nan_distance_space()
    report = conditional_suite(space, trials=5, seed=1)
    assert not report.checks["conditional_contraction"].passed
    x = ramp_element(space, 4)
    g = FinitePartition.of([("w0", "w1"), ("w2", "w3")], x.sample_space)
    result = check_ce_characterization(x, conditional_expectation(x, g), g, (0.0,))
    assert not result.passed and math.isnan(result.worst_violation) and result.witness is not None
    props = check_ce_properties(x, FinitePartition.trivial(x.sample_space), g)
    assert all(not c.passed for c in props.checks.values())


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


def test_martingale_guard_runs_from_the_finest_level_back(monkeypatch):
    # the levels are built finest first; each coarser one is checked against
    # the pull of the next finer one as soon as both exist
    x = ramp_element(E1, 8)
    filt = dyadic_filtration(x.sample_space)
    expected = [conditional_expectation(x, g) for g in filt.partitions]
    calls = []
    original = probability.conditional_expectation

    def counted(y, g):
        calls.append((y is x, len(g.blocks)))
        return original(y, g)

    monkeypatch.setattr(probability, "conditional_expectation", counted)
    seq = martingale_sequence(x, filt)
    assert [z.ordered for z in seq] == [z.ordered for z in expected]
    assert calls == [(True, 8), (True, 4), (False, 4), (True, 2), (False, 2), (True, 1), (False, 1)]
    # the first violation, here at the finest pair, stops the build: the
    # coarser levels are never built
    calls.clear()
    x = ramp_element(nan_distance_space(), 8)
    with pytest.raises(ValueError, match="martingale property violated by nan"):
        martingale_sequence(x, dyadic_filtration(x.sample_space))
    assert calls == [(True, 8), (True, 4), (False, 4)]


def distances_per_delta_p(monkeypatch, counts):
    """The ``counts["distance"]`` each later ``probability.delta_p`` call adds."""
    steps = []
    original = probability.delta_p

    def counted(x, y, p=1):
        before = counts["distance"]
        result = original(x, y, p=p)
        steps.append(counts["distance"] - before)
        return result

    monkeypatch.setattr(probability, "delta_p", counted)
    return steps


def counted_space(space):
    """``space`` with ``distance`` and ``convexify_exact`` counting their calls."""
    counts = {"distance": 0, "convexify_exact": 0}

    def counted(name):
        original = getattr(space, name)

        def call(*args):
            counts[name] += 1
            return original(*args)

        return call

    wrapped = dataclasses.replace(
        space, distance=counted("distance"), convexify_exact=counted("convexify_exact")
    )
    return wrapped, counts


@pytest.mark.parametrize("space_name, fixture", [
    ("euclidean", "seeded64-euclidean.fixture"),
    ("compact-sets", "seeded64-sets.fixture"),
    ("distributions", "seeded64-distributions.fixture"),
    ("euclidean", "seeded512-euclidean.fixture"),
    ("compact-sets", "seeded512-sets.fixture"),
    ("distributions", "seeded512-distributions.fixture"),
])
def test_martingale_trace_takes_each_distinct_value_once(space_name, fixture, monkeypatch):
    # 2^k atoms with distinct values and k + 1 levels.  Level i of the
    # sequence has 2^i distinct values, so the guard convexifies
    # 2 + 4 + ... + 2^k values after x's 2^k, and compares 1 + 2 + ... +
    # 2^(k-1) distinct pairs.  The forward trace then takes one distance per
    # atom at each level against K X, and the reverse trace, from the finest
    # level back, one per distinct value against the one-valued E X
    space, counts = counted_space(get_space(space_name))
    x = fixtures.load_fixture_file(space, space_name, str(SEEDED64.parent / fixture))
    n = len(x.sample_space)
    k = n.bit_length() - 1
    assert (n, k) in ((64, 6), (512, 9))
    steps = distances_per_delta_p(monkeypatch, counts)
    martingale_convergence_trace(x, dyadic_filtration(x.sample_space), p=2)
    assert steps == [n] * (k + 1) + [2 ** i for i in range(k, -1, -1)]
    assert counts["distance"] - sum(steps) == n - 1
    assert counts == {"distance": (k + 4) * n - 2, "convexify_exact": 3 * n - 2}
    if n == 512:  # the figures README gives
        assert counts == {"distance": 6654, "convexify_exact": 1534}


def equal_copy(point):
    """A new object equal to ``point``."""
    return tuple(list(point)) if isinstance(point, tuple) else copy.copy(point)


@pytest.mark.parametrize("space", [E1, CS1, distribution_space()], ids=lambda s: s.name)
def test_shared_value_objects_give_the_same_bits_as_equal_copies(space):
    rng = random.Random(14)
    omega = sample_sample_space(rng, 6)
    u, v, w = (space.sample(rng) for _ in range(3))
    # atoms w0..w2 share u and w3, w4 share v in ``shared``
    chosen = (u, u, u, v, v, w)
    shared = RandomElement(space, omega, dict(zip(omega.atoms, chosen)))
    copies = RandomElement(space, omega, {a: equal_copy(p) for a, p in zip(omega.atoms, chosen)})
    other = RandomElement(space, omega, dict(zip(omega.atoms, (w, v, w, u, w, v))))
    assert all(copies.values[a] is not shared.values[a] for a in omega.atoms)
    assert copies.values == shared.values
    g = FinitePartition.of([omega.atoms[:2], omega.atoms[2:5], omega.atoms[5:]], omega)
    for fine in (g, FinitePartition.finest(omega), FinitePartition.trivial(omega)):
        left = conditional_expectation(shared, fine).values
        right = conditional_expectation(copies, fine).values
        assert [repr(left[a]) for a in omega.atoms] == [repr(right[a]) for a in omega.atoms]
    for y in (other, shared, copies):
        for p in (1, 2):
            assert delta_p(shared, y, p).hex() == delta_p(copies, y, p).hex()
            assert delta_p(y, shared, p).hex() == delta_p(y, copies, p).hex()
        assert expected_distance(shared, y).hex() == expected_distance(copies, y).hex()
        assert expected_distance(shared, y).hex() == delta_p(shared, y, 1).hex()


def test_random_element_values_are_read_only():
    omega = FiniteSampleSpace.uniform(2)
    given_values = {"w0": (0.0,), "w1": (4.0,)}
    x = RandomElement(E1, omega, given_values)
    with pytest.raises(TypeError):
        x.values["w0"] = (1.0,)
    with pytest.raises(TypeError):
        x.ordered_convexified[0] = (1.0,)
    assert x.values == given_values and given_values == x.values
    assert x == RandomElement(E1, omega, dict(given_values))
    # the element keeps its own snapshot, so its convexified values cannot go stale
    given_values["w0"] = (2.0,)
    assert x.values["w0"] == x.ordered[0] == x.ordered_convexified[0] == (0.0,)
    assert x.ordered_convexified is x.ordered_convexified


def test_forward_trace_on_512_atoms_takes_one_distance_per_atom(tmp_path, monkeypatch):
    # the finest term has distinct value objects, so each forward delta_p
    # takes the plain per-atom loop; the guard and the reverse trace still
    # measure each distinct pair once
    n, k = 512, 9
    rng = random.Random(512)
    path = tmp_path / "fixture-euclidean-512.txt"
    path.write_text("".join(f"w{i} ; {1.0 / n!r} ; {rng.uniform(-5.0, 5.0)!r}\n" for i in range(n)))
    space, counts = counted_space(get_space("euclidean"))
    x = fixtures.load_fixture_file(space, "euclidean", str(path))
    seq = martingale_sequence(x, dyadic_filtration(x.sample_space))
    assert [term.distinct_values for term in seq] == [False] * k + [True]
    assert counts["distance"] == n - 1
    steps = distances_per_delta_p(monkeypatch, counts)
    martingale_convergence_trace(x, dyadic_filtration(x.sample_space), p=1)
    assert steps == [n] * (k + 1) + [2 ** i for i in range(k, -1, -1)]
    # the trace's own guard, then both traces
    assert counts["distance"] == (n - 1) + (k + 4) * n - 2


def test_distinct_values_and_mean_are_cached_per_element():
    omega = FiniteSampleSpace.uniform(3)
    u = tuple([1.0])
    shared = RandomElement(E1, omega, {"w0": u, "w1": u, "w2": tuple([2.0])})
    equal = RandomElement(E1, omega, {"w0": u, "w1": tuple([1.0]), "w2": tuple([2.0])})
    assert not shared.distinct_values and equal.distinct_values
    assert shared.mean is shared.mean
    assert repr(shared.mean) == repr(expectation(shared)) == repr((4.0 / 3.0,))


def test_jensen_check_evaluates_phi_once_per_atom():
    space, counts = counted_space(CS1)
    rng = random.Random(8)
    omega = sample_sample_space(rng, 6)
    x = sample_random_element(space, omega, rng)
    g = sample_partition(rng, omega, 3)
    phi = DistanceTo(space, convexify(space, space.sample(rng)))
    before = counts["distance"]
    report = jensen_check(x, phi, conditional=g)
    # phi at each of the 6 atoms, at the mean and at each block's value
    assert counts["distance"] - before == 6 + 1 + 3
    assert [(name, c.trials) for name, c in report.checks.items()] == [
        ("jensen", 1), ("conditional_jensen", 3)]
    assert list(jensen_check(x, phi).checks) == ["jensen"]


def reference_conditional_suite(space, trials, seed):
    """``conditional_suite`` with every value computed where it is used, from
    ``conditional_expectation``, ``expectation`` and phi."""
    report = AxiomReport.for_space(space, None, seed)
    for t in range(trials):
        rng = trial_rng(seed, t)
        omega = sample_sample_space(rng, rng.randint(4, 6))
        g = sample_partition(rng, omega, rng.randint(2, 3))
        x = sample_random_element(space, omega, rng)
        y = sample_random_element(space, omega, rng)
        worst = 0.0
        for block in g.blocks:
            block_prob = math.fsum(omega.prob(a) for a in block)
            cond_dist = math.fsum(
                omega.prob(a) * space.distance(x.values[a], y.values[a]) for a in block
            ) / block_prob
            a0 = block[0]
            gap = space.distance(conditional_expectation(x, g).values[a0],
                                 conditional_expectation(y, g).values[a0]) - cond_dist
            worst = nan_max(worst, gap)
        report.check("conditional_contraction").record(worst, t, g.blocks)

        phi = DistanceTo(space, convexify(space, space.sample(rng)))
        fold = CheckResult("conditional_jensen")
        for block in g.blocks:
            block_prob = math.fsum(omega.prob(a) for a in block)
            lhs = phi(conditional_expectation(x, g).values[block[0]])
            rhs = math.fsum(omega.prob(a) * phi(x.values[a]) for a in block) / block_prob
            fold.record(lhs - rhs)
        report.check("conditional_jensen").record(fold.worst_violation, t)
        fold = CheckResult("jensen")
        lhs = phi(expectation(x))
        fold.record(lhs - math.fsum(p * phi(x.values[a]) for a, p in zip(omega.atoms, omega.probs)))
        report.check("jensen").record(fold.worst_violation, t)
    return report


@pytest.mark.parametrize("label", list(cli.BATTERY))
def test_conditional_suite_rows_match_values_rebuilt_where_used(label):
    name, dim, _ = cli.BATTERY[label]
    space = get_space(name, dim=dim)
    for seed in range(5):
        got = conditional_suite(space, trials=4, seed=seed)
        want = reference_conditional_suite(space, 4, seed)
        assert [(n, repr(w), k, v) for n, w, k, v in got.rows()] == [
            (n, repr(w), k, v) for n, w, k, v in want.rows()]
        assert {n: c.witness for n, c in got.checks.items()} == {
            n: c.witness for n, c in want.checks.items()}


def reference_mix(lam, x, y):
    """``mix_elements`` by label."""
    return RandomElement(x.space, x.sample_space, {
        a: combine(x.space, [(lam, x.values[a]), (1.0 - lam, y.values[a])])
        for a in x.sample_space.atoms})


def reference_ce_properties(x, g_coarse, g_fine, tol):
    """``check_ce_properties`` with every element read and built by label."""
    space, omega = x.space, x.sample_space
    report = AxiomReport.for_space(space, tol)
    for g in (g_coarse, g_fine):
        gap = space.distance(expectation(conditional_expectation(x, g)), expectation(x))
        report.check("iterated_expectation").record(gap, g.blocks)
    measurable = RandomElement(
        space, omega, {a: x.values[g_fine.block_of(a)[0]] for a in omega.atoms})
    ce = conditional_expectation(measurable, g_fine)
    worst = nan_max(space.distance(ce.values[a], convexify(space, measurable.values[a]))
                    for a in omega.atoms)
    report.check("measurable_to_convexification").record(worst, g_fine.blocks)
    n = len(omega)
    y = RandomElement(space, omega, {
        a: x.values[omega.atoms[(i + 1) % n]] for i, a in enumerate(omega.atoms)})
    lhs = conditional_expectation(reference_mix(0.375, x, y), g_fine)
    rhs = reference_mix(
        0.375, conditional_expectation(x, g_fine), conditional_expectation(y, g_fine))
    worst = nan_max(space.distance(lhs.values[a], rhs.values[a]) for a in omega.atoms)
    report.check("mixing").record(worst, 0.375, g_fine.blocks)
    inner = conditional_expectation(x, g_coarse)
    towered = conditional_expectation(inner, g_fine).values
    other = conditional_expectation(conditional_expectation(x, g_fine), g_coarse).values
    worst = nan_max(nan_max(space.distance(towered[a], inner.values[a]),
                            space.distance(other[a], inner.values[a])) for a in omega.atoms)
    report.check("tower").record(worst, g_coarse.blocks, g_fine.blocks)
    return report


def reference_ce_characterization(x, y, g, anchor, tol):
    """``check_ce_characterization`` with the clipped elements built by label."""
    fold = CheckResult("characterization", tolerance=tol)
    for k in range(len(g.blocks) + 1):
        for chosen in itertools.combinations(g.blocks, k):
            covered = {a for block in chosen for a in block}
            means = [expectation(RandomElement(x.space, x.sample_space, {
                a: z.values[a] if a in covered else anchor for a in x.sample_space.atoms}))
                for z in (x, y)]
            fold.record(x.space.distance(*means), chosen)
    return fold.passed, repr(fold.worst_violation), fold.witness


@pytest.mark.parametrize("label", list(cli.BATTERY))
def test_ce_checks_match_their_label_walks(label):
    # tolerance 0 records a witness at every positive violation; the wrong
    # element is E X on every atom, which has the expectation of E(X | G)
    name, dim, _ = cli.BATTERY[label]
    space = get_space(name, dim=dim)
    for seed in range(4):
        rng = random.Random(seed)
        omega = sample_sample_space(rng, 6)
        x = sample_random_element(space, omega, rng)
        fine = sample_partition(rng, omega, 3)
        coarse = FinitePartition.of([fine.blocks[0] + fine.blocks[1], fine.blocks[2]], omega)
        got = check_ce_properties(x, coarse, fine, tol=0.0)
        want = reference_ce_properties(x, coarse, fine, 0.0)
        assert [(n, repr(w), k, v) for n, w, k, v in got.rows()] == [
            (n, repr(w), k, v) for n, w, k, v in want.rows()]
        assert {n: c.witness for n, c in got.checks.items()} == {
            n: c.witness for n, c in want.checks.items()}
        anchor = convexify(space, space.sample(rng))
        wrong = RandomElement(space, omega, dict.fromkeys(omega.atoms, x.mean))
        for y in (conditional_expectation(x, fine), wrong):
            result = check_ce_characterization(x, y, fine, anchor, tol=0.0)
            assert (result.passed, repr(result.worst_violation), result.witness) == \
                reference_ce_characterization(x, y, fine, anchor, 0.0)


def test_martingale_trace_rejects_bad_p():
    x = ramp_element(E1, 4)
    with pytest.raises(ValueError, match="p must be 1 or 2"):
        martingale_convergence_trace(x, dyadic_filtration(x.sample_space), p=3)


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
    assert phi((-2.0,)) == 2.5 and phi((3.0,)) == 3.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1])
def test_support_max_rejects_offsets_that_are_not_finite(bad, position):
    offsets = [0.0, 0.0]
    offsets[position] = bad
    with pytest.raises(ValueError, match="offsets must be finite"):
        SupportMax.of([(1.0,), (-1.0,)], offsets)


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
