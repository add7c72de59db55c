import itertools
import math
import random
from fractions import Fraction
from operator import itemgetter

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccspace import (
    DiscreteDistribution,
    quantile_resample,
    scaled_convolution_combine,
    wasserstein1,
)
from ccspace import distribution_space, distributions, slln_run
from ccspace.distributions import (
    ATOM_MERGE_RESOLUTION,
    PRODUCT_ARRAY_ATOMS,
    PROB_SUM_TOL,
    W1_ARRAY_ATOMS,
    _dirac_step,
    _product_step_array,
)
from ccspace.fixtures import slln_law


def brute_convolution(weights, dists):
    """Oracle: full product enumeration of sum_i w_i X_i, each atom taken
    exactly, merged into the first atom of each run within the resolution."""
    pairs = sorted(
        (math.fsum(w * a for w, (a, _) in zip(weights, combo)), math.prod(p for _, p in combo))
        for combo in itertools.product(*[list(zip(d.atoms, d.probs)) for d in dists])
    )
    merged = []
    for value, prob in pairs:
        if merged and value - merged[-1][0] <= ATOM_MERGE_RESOLUTION:
            merged[-1][1] += prob
        else:
            merged.append([value, prob])
    return [tuple(atom) for atom in merged]


def brute_w1(f, g, lo=-20.0, hi=20.0, steps=200_000):
    """Oracle: Riemann sum of |F - G| on a fine grid."""
    def cdf(d, t):
        return math.fsum(p for a, p in zip(d.atoms, d.probs) if a <= t)

    h = (hi - lo) / steps
    return math.fsum(abs(cdf(f, lo + (i + 0.5) * h) - cdf(g, lo + (i + 0.5) * h)) * h for i in range(steps))


def make_dist(atoms, raw):
    total = sum(raw[: len(atoms)])
    probs = [r / total for r in raw[: len(atoms)]]
    probs[-1] = 1.0 - math.fsum(probs[:-1])
    return DiscreteDistribution.of(atoms, probs)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution.of([0.0, 1.0], [0.6, 0.6])
    with pytest.raises(ValueError):
        DiscreteDistribution.of([], [])
    merged = DiscreteDistribution.of([0.0, 0.0 + 1e-13, 1.0], [0.25, 0.25, 0.5])
    assert merged.atoms == (0.0, 1.0)
    assert merged.probs == (0.5, 0.5)


@pytest.mark.parametrize("probs", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5),
                                   (math.inf, -math.inf)])
def test_distribution_rejects_non_finite_probabilities(probs):
    # abs(nan - 1) > tol is false, so a NaN once passed the sum check
    with pytest.raises(ValueError):
        DiscreteDistribution.of([0.0, 1.0], probs)


def general_convolution(weights, dists):
    """Oracle: the product-atom path for every step, Dirac operands included."""
    acc = DiscreteDistribution.delta(0.0)
    for w, f in zip(weights, dists):
        acc = DiscreteDistribution.of(
            [a + w * b for a in acc.atoms for b in f.atoms],
            [pa * pb for pa in acc.probs for pb in f.probs],
        )
    return acc


def bits(f):
    return [x.hex() for x in f.atoms], [p.hex() for p in f.probs]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.lists(st.floats(-5, 5), min_size=1, max_size=2)),
        min_size=1,
        max_size=8,
    ),
)
def test_dirac_step_matches_general_path_bit_for_bit(steps):
    # Dirac operands take the direct step, a two-atom operand the product path
    weights = [w for w, _ in steps]
    dists = [
        DiscreteDistribution.delta(atoms[0]) if len(atoms) == 1
        else DiscreteDistribution.of(atoms, [0.375, 0.625])
        for _, atoms in steps
    ]
    expected = general_convolution(weights, dists)
    assert bits(scaled_convolution_combine(weights, dists, atom_cap=None)) == bits(expected)


@pytest.mark.parametrize("dist,message", [
    (DiscreteDistribution.delta(1e308), "atoms must be finite"),
    (DiscreteDistribution((math.nan,), (1.0,)), "atoms must be finite"),
    (DiscreteDistribution((0.0,), (0.5,)), "probabilities sum to 0.5"),
    (DiscreteDistribution((0.0,), (math.nan,)), "probabilities sum to nan"),
])
def test_dirac_step_makes_the_constructor_checks(dist, message):
    with pytest.raises(ValueError, match=message):
        general_convolution([1.0, 1.0], [DiscreteDistribution.delta(1e308), dist])
    with pytest.raises(ValueError, match=message):
        scaled_convolution_combine([1.0, 1.0], [DiscreteDistribution.delta(1e308), dist])


dirac_runs = st.lists(
    st.tuples(st.floats(-1e3, 1e3), st.floats(-5, 5),
              st.sampled_from((1.0, 1.0 - 4e-13, 1.0 + 4e-13))),
    min_size=1,
    max_size=40,
)


def chained_dirac_steps(weights, dists):
    atom, prob = 0.0, 1.0
    for w, f in zip(weights, dists):
        atom, prob = _dirac_step(atom, prob, w, f)
    return DiscreteDistribution((atom,), (prob,))


@settings(max_examples=200, deadline=None)
@given(dirac_runs)
def test_a_run_of_dirac_steps_gives_the_chained_steps_law(steps):
    # every operand has one atom, so the whole fold is one run held as floats;
    # each step must still make the loop's a + w*b and pa*pb and its checks,
    # in order: masses 1 +- 4e-13 leave the tolerance after a few steps
    weights = [w for w, _, _ in steps]
    dists = [DiscreteDistribution((atom,), (mass,)) for _, atom, mass in steps]
    expected = outcome(lambda: general_convolution(weights, dists))
    assert outcome(lambda: scaled_convolution_combine(weights, dists, atom_cap=None)) == expected
    assert outcome(lambda: chained_dirac_steps(weights, dists)) == expected


@pytest.mark.parametrize("bad", [
    DiscreteDistribution((math.nan,), (1.0,)),
    DiscreteDistribution((math.inf,), (1.0,)),
    DiscreteDistribution((1e308,), (1.0,)),  # finite, but the running atom overflows
    DiscreteDistribution((0.0,), (1.0 + 2e-12,)),
    DiscreteDistribution((0.0,), (1.0 - 2e-12,)),
], ids=["nan-atom", "inf-atom", "overflow", "mass-high", "mass-low"])
@pytest.mark.parametrize("at", [1, 3])
def test_a_dirac_run_rejects_what_the_chained_steps_reject(bad, at):
    # the bad operand comes at step ``at`` of a run of five, after a start of
    # 1e308; the run raises the text the chained product steps raise
    dists = [DiscreteDistribution.delta(1e308)] + [DiscreteDistribution.delta(0.5)] * 4
    dists[at] = bad
    weights = [1.0] * 5
    expected = outcome(lambda: general_convolution(weights, dists))
    assert outcome(lambda: scaled_convolution_combine(weights, dists)) == expected
    assert expected[0] == "error"
    assert expected[1].startswith(("atoms must be finite", "probabilities sum to"))


def test_degenerate_convolution():
    got = scaled_convolution_combine(
        [0.5, 0.5], [DiscreteDistribution.delta(0.0), DiscreteDistribution.delta(1.0)]
    )
    assert got.atoms == (0.5,)
    assert got.probs == (1.0,)


def test_bernoulli_convolution_enumeration():
    bern = DiscreteDistribution.of([0.0, 1.0], [0.5, 0.5])
    got = scaled_convolution_combine([0.5, 0.5], [bern, bern])
    assert got.atoms == (0.0, 0.5, 1.0)
    assert got.probs == (0.25, 0.5, 0.25)


def test_identity_weight_convolution():
    f = DiscreteDistribution.of([-1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
    got = scaled_convolution_combine([1.0], [f])
    assert got.atoms == f.atoms
    assert all(abs(p - q) <= 1e-15 for p, q in zip(got.probs, f.probs))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-5, 5), min_size=1, max_size=3, unique_by=lambda x: round(x, 2)),
        min_size=2,
        max_size=3,
    ),
    st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3),
    st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3),
)
def test_convolution_matches_brute_force(groups, raw_probs, raw_weights):
    dists = [make_dist(g, raw_probs) for g in groups]
    total = sum(raw_weights[: len(dists)])
    weights = [w / total for w in raw_weights[: len(dists)]]
    weights[-1] = 1.0 - math.fsum(weights[:-1])
    got = scaled_convolution_combine(weights, dists, atom_cap=None)
    oracle = brute_convolution(weights, dists)
    assert len(got.atoms) == len(oracle)
    for (a, p), (oa, op) in zip(zip(got.atoms, got.probs), oracle):
        assert a == pytest.approx(oa, abs=1e-9)
        assert p == pytest.approx(op, abs=1e-12)


def test_w1_trivial_cases():
    assert wasserstein1(DiscreteDistribution.delta(0.0), DiscreteDistribution.delta(1.0)) == 1.0
    bern = DiscreteDistribution.of([0.0, 1.0], [0.5, 0.5])
    assert wasserstein1(bern, DiscreteDistribution.delta(0.5)) == 0.5
    assert wasserstein1(bern, bern) == 0.0


def test_w1_matches_riemann_oracle():
    f = DiscreteDistribution.of([-2.0, 0.5, 3.0], [0.25, 0.5, 0.25])
    g = DiscreteDistribution.of([-1.0, 2.0], [0.7, 0.3])
    assert wasserstein1(f, g) == pytest.approx(brute_w1(f, g), abs=1e-3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=4, unique_by=lambda x: round(x, 2)),
    st.lists(st.floats(-5, 5), min_size=1, max_size=4, unique_by=lambda x: round(x, 2)),
    st.lists(st.floats(-5, 5), min_size=1, max_size=4, unique_by=lambda x: round(x, 2)),
    st.lists(st.floats(0.1, 1.0), min_size=4, max_size=4),
)
def test_w1_is_a_metric(a_atoms, b_atoms, c_atoms, raw):
    f, g, h = (make_dist(a, raw) for a in (a_atoms, b_atoms, c_atoms))
    assert wasserstein1(f, g) == wasserstein1(g, f) >= 0.0
    assert wasserstein1(f, f) == 0.0
    assert wasserstein1(f, g) <= wasserstein1(f, h) + wasserstein1(h, g) + 1e-12


def test_mean_examples():
    assert DiscreteDistribution.of([0.0, 1.0], [0.5, 0.5]).mean() == 0.5
    assert DiscreteDistribution.delta(-3.25).mean() == -3.25
    got = DiscreteDistribution.of([1.0, 2.0, 3.0], [0.2, 0.3, 0.5]).mean()
    assert got == pytest.approx(2.3, abs=1e-15)


def test_quantile_resample_error_bound():
    f = DiscreteDistribution.of([-4.0, -1.0, 0.5, 2.0, 6.0], [0.1, 0.2, 0.3, 0.2, 0.2])
    for m in (4, 16, 64, 256):
        reduced = quantile_resample(f, m)
        assert len(reduced) <= m
        assert wasserstein1(f, reduced) <= (f.atoms[-1] - f.atoms[0]) / m + 1e-12


def test_self_convolution_contracts_to_the_mean():
    # W1 of the n-fold equal-weight self-combination to the Dirac mass at the
    # mean is non-increasing along n = 1, 2, 4, ..., 64 (exact enumeration)
    laws = [
        DiscreteDistribution.of([0.0, 1.0], [0.5, 0.5]),
        DiscreteDistribution.of([-2.0, 0.5, 3.0], [0.25, 0.5, 0.25]),
        DiscreteDistribution.of([-1.0, 0.0, 1.5, 4.0], [0.1, 0.4, 0.3, 0.2]),
    ]
    for f in laws:
        target = DiscreteDistribution.delta(f.mean())
        previous = None
        for n in (1, 2, 4, 8, 16, 32, 64):
            iterate = scaled_convolution_combine([1.0 / n] * n, [f] * n, atom_cap=None)
            gap = wasserstein1(iterate, target)
            assert iterate.mean() == pytest.approx(f.mean(), abs=1e-9)
            if previous is not None:
                assert gap <= previous + 1e-12
            previous = gap
        assert previous < wasserstein1(f, target) or len(f) == 1


def test_convolution_resamples_above_cap():
    f = DiscreteDistribution.of([0.0, 1.0, 2.5], [0.3, 0.3, 0.4])
    exact = scaled_convolution_combine([0.25] * 4, [f] * 4, atom_cap=None)
    capped = scaled_convolution_combine([0.25] * 4, [f] * 4, atom_cap=8)
    assert len(exact) > 8 >= len(capped)
    spread = exact.atoms[-1] - exact.atoms[0]
    # one resample per step above the cap, each bounded by spread / cap
    assert wasserstein1(exact, capped) <= 4 * spread / 8


# Array kernels: laws built directly (no merging), so that the product step
# meets every pattern its merge must reproduce.  ``kind`` picks the atoms:
#   lattice - multiples of 1/8, so product atoms collide with different probs,
#             and a signed zero;
#   chain   - runs of atoms 0.6e-12 apart whose span exceeds the resolution;
#   spread  - distinct uniform draws.
# Some probabilities are 1e-200, so products of two of them underflow to 0.
LAW_KINDS = ("lattice", "chain", "spread")


def law_from(rng, n, kind):
    if kind == "lattice":
        atoms = sorted(k / 8 for k in rng.sample(range(-8 * n, 8 * n), n))
        atoms = [rng.choice((-0.0, 0.0)) if a == 0 else a for a in atoms]
    elif kind == "chain":
        centres = sorted(rng.sample(range(-50, 50), 1 + n // 8))
        atoms = sorted({c / 4 + i * 0.6e-12 for c in centres for i in range(8)})[:n]
    else:
        atoms = sorted({rng.uniform(-5.0, 5.0) for _ in range(n)})
    raw = [rng.random() + 0.01 for _ in atoms]
    total = math.fsum(raw)
    probs = [1e-200 if rng.random() < 0.1 else r / total for r in raw]
    probs[-1] = 0.0
    probs[-1] = 1.0 - math.fsum(probs)
    return DiscreteDistribution(tuple(atoms), tuple(probs))


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2**32),
    st.lists(st.tuples(st.integers(1, 300), st.sampled_from(LAW_KINDS)), min_size=1, max_size=3),
)
def test_product_step_kernels_match_the_loop_bit_for_bit(seed, shapes):
    # operands from a few atoms to several hundred: steps on both sides of
    # PRODUCT_ARRAY_ATOMS, against the loop-only oracle
    rng = random.Random(seed)
    dists = [law_from(rng, n if i == 0 else 1 + n % 4, kind) for i, (n, kind) in enumerate(shapes)]
    weights = [rng.choice((0.5, 1.0 / 3.0, rng.uniform(-2.0, 2.0))) for _ in dists]
    expected = general_convolution(weights, dists)
    assert bits(scaled_convolution_combine(weights, dists, atom_cap=None)) == bits(expected)


@pytest.mark.parametrize("n", [3, 63, 64, 127, 128, 400])
@pytest.mark.parametrize("kind", LAW_KINDS)
def test_product_step_kernels_at_the_threshold(n, kind):
    rng = random.Random(n)
    f, g = law_from(rng, n, kind), law_from(rng, 2, kind)
    weights = [0.5, 0.5]
    got = scaled_convolution_combine(weights, [f, g], atom_cap=None)
    assert bits(got) == bits(general_convolution(weights, [f, g]))


def test_chain_merges_relative_to_the_first_atom():
    # 0.6e-12 gaps: each atom is within the resolution of its neighbour, but
    # the third is past the resolution from the first, so it starts a group
    n = PRODUCT_ARRAY_ATOMS
    f = DiscreteDistribution(tuple(i * 0.6e-12 for i in range(n)), (1.0 / n,) * n)
    got = scaled_convolution_combine([1.0, 1.0], [f, DiscreteDistribution.delta(0.0)],
                                     atom_cap=None)
    assert bits(got) == bits(general_convolution([1.0, 1.0], [f, DiscreteDistribution.delta(0.0)]))
    assert len(got) == n // 2
    assert all(b - a > ATOM_MERGE_RESOLUTION for a, b in zip(got.atoms, got.atoms[1:]))


@pytest.mark.parametrize("n", [4, PRODUCT_ARRAY_ATOMS, 2 * PRODUCT_ARRAY_ATOMS])
@pytest.mark.parametrize("f,message", [
    # both addends near the largest float: the product atom overflows to inf
    (DiscreteDistribution((1e308,), (1.0,)), "atoms must be finite"),
    (DiscreteDistribution((0.0, 1.0), (0.25, 0.25)), "probabilities sum to 0.5"),
])
def test_product_step_kernels_make_the_constructor_checks(n, f, message):
    big = DiscreteDistribution(tuple(1e308 - i * 1e292 for i in range(n)), (1.0 / n,) * n)
    with pytest.raises(ValueError, match=message) as expected:
        general_convolution([1.0, 1.0], [big, f])
    with pytest.raises(ValueError, match=message) as got:
        scaled_convolution_combine([1.0, 1.0], [big, f])
    assert str(got.value) == str(expected.value)


def outcome(step):
    """The law ``step()`` returns, as bits, or the message of its ValueError."""
    try:
        return "law", bits(step())
    except ValueError as exc:
        return "error", str(exc)


def loop_step(acc, w, f):
    """One product step of the loop path: the array kernels' oracle."""
    return DiscreteDistribution.of([a + w * b for a in acc.atoms for b in f.atoms],
                                   [pa * pb for pa in acc.probs for pb in f.probs])


def array_step(acc, w, f):
    """One product step of the array kernel, as a law."""
    atoms, probs = _product_step_array(acc.atoms_array, acc.probs_array, w, f)
    return DiscreteDistribution._from_arrays(atoms, probs)


# One-atom steps: weight 1e-13 pushes scaled gaps below the resolution (merges),
# a negative weight reverses the atoms, and 0.0 sends every atom to one point.
ONE_ATOM_WEIGHTS = (1.0, 0.5, 1e-13, -0.75, 0.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(64, 400), st.sampled_from(LAW_KINDS),
       st.sampled_from(ONE_ATOM_WEIGHTS), st.sampled_from(ONE_ATOM_WEIGHTS),
       st.sampled_from((0.0, -0.0, 1.0, -2.5)), st.sampled_from((1.0, 1.0 - 2.0**-40)),
       st.booleans())
def test_one_atom_steps_match_the_loop_bit_for_bit(seed, n, kind, w1, w2, x, px, law_first):
    # [law, dirac]: delta(0) (x) law has a one-atom acc, then the result (x)
    # dirac a one-atom f; [dirac, law]: a one-atom acc at x * w1
    law = law_from(random.Random(seed), n, kind)
    dirac = DiscreteDistribution((x,), (px,))
    dists = [law, dirac] if law_first else [dirac, law]
    expected = outcome(lambda: general_convolution([w1, w2], dists))
    assert outcome(lambda: scaled_convolution_combine([w1, w2], dists, atom_cap=None)) == expected


def count_sorts(monkeypatch):
    """Record each ``np.lexsort`` and ``np.argsort`` call by name."""
    sorts = []
    for name in ("lexsort", "argsort"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *args, real=real, name=name, **kwargs:
                            sorts.append(name) or real(*args, **kwargs))
    return sorts


@pytest.mark.parametrize("law_first,kind,w,shortcut", [
    # delta (x) law scales the law by w
    (False, "spread", 1.0, True),
    (False, "lattice", 0.5, True),  # one signed zero among lattice atoms
    (False, "spread", -0.75, False),  # decreasing atoms
    (False, "spread", 0.0, False),
    (False, "lattice", 1e-13, False),
    (False, "chain", 1.0, False),  # 0.6e-12 gaps
    # law (x) delta shifts the law by w * 0.25
    (True, "spread", -0.75, True),
    (True, "lattice", 1e-13, True),
    (True, "chain", 1.0, False),
])
def test_one_atom_step_skips_the_sort_only_when_nothing_merges(monkeypatch, law_first, kind, w,
                                                                shortcut):
    law = law_from(random.Random(7), 300, kind)
    dirac = DiscreteDistribution.delta(0.25)
    acc, f = (law, dirac) if law_first else (dirac, law)
    sorts = count_sorts(monkeypatch)
    assert bits(array_step(acc, w, f)) == bits(loop_step(acc, w, f))
    assert len(sorts) == (0 if shortcut else 1)


def test_one_atom_step_drops_zero_probabilities():
    law = law_from(random.Random(7), 300, "spread")
    probs = list(law.probs)
    probs[0], probs[1] = probs[0] + probs[1], 0.0
    law = DiscreteDistribution(law.atoms, tuple(probs))
    dirac = DiscreteDistribution.delta(0.25)
    for acc, f in ((dirac, law), (law, dirac)):
        got = array_step(acc, 1.0, f)
        assert bits(got) == bits(loop_step(acc, 1.0, f))
        assert len(got) == len(law) - 1


def test_slln_raw_track_takes_the_one_atom_step(monkeypatch):
    # each step [(n-1)/n, S ; 1/n, X] scales S by delta(0) (x) S, and shifts
    # it when X is a Dirac law: every such array step must skip the sort
    steps = {"one-atom": 0, "other": 0}
    product_step = distributions._product_step_array

    def counted_step(atoms, probs, w, f):
        steps["one-atom" if min(len(atoms), len(f)) == 1 else "other"] += 1
        return product_step(atoms, probs, w, f)

    monkeypatch.setattr(distributions, "_product_step_array", counted_step)
    sorts = count_sorts(monkeypatch)
    slln_run(distribution_space(), slln_law("distributions", "bernoulli"), n_max=400, seed=5,
             mode="raw_track")
    assert steps["one-atom"] > steps["other"] > 0
    # the two-atom steps tie exactly, and each sorts once, by atom
    assert sorts == ["argsort"] * steps["other"]


def dense_lattice_law(rng, n):
    """n atoms among the 2n multiples of 1/8 nearest 0 (a zero, when drawn,
    of either sign), with probabilities in the ratios 1:2:3, so many are equal."""
    ks = sorted(rng.sample(range(-n, n), n))
    atoms = [rng.choice((-0.0, 0.0)) if k == 0 else k / 8 for k in ks]
    raw = [rng.choice((1, 2, 3)) for _ in ks]
    probs = [r / sum(raw) for r in raw]
    probs[-1] = 1.0 - math.fsum(probs[:-1])
    return DiscreteDistribution(tuple(atoms), tuple(probs))


def zero_tie_law():
    """A law whose product with ``ZERO_TIE_OPERAND`` (weight 1) puts
    -0.0 + -0.0 = -0.0, then 0.125 + -0.125 = 0.0 with half its probability,
    in one group of two."""
    atoms = (-1.0, -0.0, 0.125, 0.5, 2.0) + tuple(3.0 + k for k in range(40))
    weights = [2 if a == 0 else 1 for a in atoms]
    return DiscreteDistribution(atoms, tuple(w / sum(weights) for w in weights))


ZERO_TIE_OPERAND = DiscreteDistribution((-0.125, -0.0), (0.5, 0.5))


# Operands of a general product step with a law: distinct products, lattice
# ties in groups of two (equal and unequal probabilities) and of three, and
# -0.0 against 0.0 in a group of two.  Each step sorts once, by atom.
@pytest.mark.parametrize("acc,f", [
    (law_from(random.Random(1), 100, "spread"), DiscreteDistribution((0.0, 0.3), (0.5, 0.5))),
    (dense_lattice_law(random.Random(2), 100), DiscreteDistribution((0.0, 0.125), (0.5, 0.5))),
    (dense_lattice_law(random.Random(3), 100),
     DiscreteDistribution((0.0, 0.125), (0.375, 0.625))),
    (dense_lattice_law(random.Random(4), 100),
     DiscreteDistribution((0.0, 0.125, 0.25), (0.25, 0.375, 0.375))),
    (zero_tie_law(), ZERO_TIE_OPERAND),
])
def test_general_step_sorts_by_prob_only_when_a_tie_can_change_the_bits(monkeypatch, acc, f):
    # the stable sort of the atoms is the loop's order, so no tie needs a
    # second sort
    counted = count_sorts(monkeypatch)
    assert bits(array_step(acc, 1.0, f)) == bits(loop_step(acc, 1.0, f))
    assert counted == ["argsort"]


def test_zero_tie_keeps_the_sign_of_the_loops_first_atom():
    # in product order -0.0 + -0.0 = -0.0 comes before 0.125 + -0.125 = 0.0,
    # and the group keeps the sign of its first atom
    got = array_step(zero_tie_law(), 1.0, ZERO_TIE_OPERAND)
    assert bits(got) == bits(loop_step(zero_tie_law(), 1.0, ZERO_TIE_OPERAND))
    zero = got.atoms.index(0.0)
    assert math.copysign(1.0, got.atoms[zero]) == -1.0
    assert got.atoms[zero - 1] != 0.0 != got.atoms[zero + 1]


def test_equal_atoms_keep_their_input_order():
    # the group of 0.0 and -0.0 keeps the first one given, whatever the
    # probabilities
    for atoms, sign in (((0.0, -0.0), 1.0), ((-0.0, 0.0), -1.0)):
        for probs in ((0.75, 0.25), (0.25, 0.75)):
            law = DiscreteDistribution.of(atoms, probs)
            assert law.atoms == (0.0,) and law.probs == (1.0,)
            assert math.copysign(1.0, law.atoms[0]) == sign


# Operands whose products with lattice laws tie exactly: equal and unequal
# probabilities, -0.0 against 0.0, and groups of two or of three and more.
TIE_OPERANDS = (
    DiscreteDistribution((0.0, 0.125), (0.5, 0.5)),
    DiscreteDistribution((0.0, 0.125), (0.375, 0.625)),
    DiscreteDistribution((-0.0, 0.125), (0.625, 0.375)),
    DiscreteDistribution((-0.125, -0.0), (0.5, 0.5)),
    DiscreteDistribution((0.0, 0.125, 0.25), (0.25, 0.375, 0.375)),
    DiscreteDistribution((-0.25, 0.0, 0.5, 0.625), (0.25, 0.25, 0.25, 0.25)),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(32, 300), st.sampled_from(TIE_OPERANDS),
       st.sampled_from((1.0, 0.5, -1.0, 2.0)))
def test_stable_sort_gives_the_loop_bits_on_exact_ties(seed, n, f, w):
    # products of a lattice law (with a signed zero) and a lattice operand,
    # weights that keep them on the lattice: many exact ties
    acc = dense_lattice_law(random.Random(seed), n)
    assert outcome(lambda: array_step(acc, w, f)) == outcome(lambda: loop_step(acc, w, f))


def loop_group_sizes(acc, w, f):
    """The sizes of the merge groups of the loop's product step."""
    pairs = sorted(((a + w * b, pa * pb) for a, pa in zip(acc.atoms, acc.probs)
                    for b, pb in zip(f.atoms, f.probs)), key=itemgetter(0))
    sizes = []
    head = None
    for a, p in pairs:
        if p == 0.0:
            continue
        if head is not None and a - head <= ATOM_MERGE_RESOLUTION:
            sizes[-1] += 1
        else:
            head = a
            sizes.append(1)
    return sizes


@pytest.mark.parametrize("longest", [2, 3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_two_member_merge_matches_the_general_merge(longest, seed):
    # groups of two, three and four take the member-by-member merge; the
    # loop's sequential merge is its oracle
    rng = random.Random(seed)
    acc = dense_lattice_law(rng, rng.randint(40, 300))
    f = DiscreteDistribution(tuple(k / 8 for k in range(longest)), (1.0 / longest,) * longest)
    assert max(loop_group_sizes(acc, 1.0, f)) == longest
    assert bits(array_step(acc, 1.0, f)) == bits(loop_step(acc, 1.0, f))


def with_entry(law, i, atom=None, prob=None, shift=0.0):
    """``law`` with atom i or probability i replaced; ``shift`` moves mass
    from probability i + 1 to probability i, keeping the sum."""
    atoms, probs = list(law.atoms), list(law.probs)
    if atom is not None:
        atoms[i] = atom
    if prob is not None:
        probs[i] = prob
    if shift:
        probs[i] -= shift
        probs[i + 1] += shift
    return DiscreteDistribution(tuple(atoms), tuple(probs))


BAD_LAWS = {
    "nan atom": lambda law: with_entry(law, 50, atom=math.nan),
    "inf atom": lambda law: with_entry(law, len(law) - 1, atom=math.inf),
    "negative probability": lambda law: with_entry(law, 3, shift=0.25),
    "nan probability": lambda law: with_entry(law, 3, prob=math.nan),
    "mass off by 2e-12": lambda law: with_entry(law, 3, prob=law.probs[3] + 2e-12),
}
# (acc, w, f) of each new path, with the law to be broken in it
STEP_PATHS = {
    "scaling": lambda law: (DiscreteDistribution.delta(0.0), 0.5, law),
    "shift": lambda law: (law, 1.0, DiscreteDistribution.delta(0.25)),
    "stable sort": lambda law: (law, 1.0, DiscreteDistribution((0.0, 0.3), (0.5, 0.5))),
    "two-member merge": lambda law: (law, 1.0, DiscreteDistribution((0.0, 0.125), (0.5, 0.5))),
}


@pytest.mark.parametrize("path", sorted(STEP_PATHS))
@pytest.mark.parametrize("bad", sorted(BAD_LAWS))
def test_new_step_paths_make_the_constructor_checks(path, bad):
    law = DiscreteDistribution(tuple(k / 8 for k in range(100)), (0.01,) * 100)
    acc, w, f = STEP_PATHS[path](BAD_LAWS[bad](law))
    expected = outcome(lambda: loop_step(acc, w, f))
    assert expected[0] == "error"
    assert outcome(lambda: array_step(acc, w, f)) == expected
    assert outcome(lambda: scaled_convolution_combine([1.0, w], [acc, f])) == expected


def boundary_masses():
    """The floats one ulp inside and one ulp outside 1 +- PROB_SUM_TOL, as
    ``_check_mass`` compares them."""
    def inside(s):
        return abs(s - 1.0) <= PROB_SUM_TOL

    masses = {}
    for side, away in (("above", 2.0), ("below", 0.0)):
        s = 1.0
        while inside(math.nextafter(s, away)):
            s = math.nextafter(s, away)
        masses["inside " + side] = s
        masses["outside " + side] = math.nextafter(s, away)
    return masses


BOUNDARY_MASSES = boundary_masses()


def probs_summing_to(n, target):
    """n probabilities whose exact sum is ``target``, made so that a float sum
    that starts from the first one misses it toward 1 by several ulps.

    The first is 9/16; each other one but the last is a multiple of u = 2**-53,
    the spacing of floats in [1/2, 1), plus 31/64 u (or 33/64 u below 1).  Each
    addition to a running sum in [1/2, 1) then rounds the same way.
    """
    u = 2.0 ** -53
    frac = 31 / 64 if target > 1.0 else 33 / 64
    small = (math.floor((target - 0.5625) / (n - 1) / u) + frac) * u
    rest = [0.5625] + [small] * (n - 2)
    last = float(Fraction(target) - sum(map(Fraction, rest)))
    probs = rest + [last]
    assert math.fsum(probs) == target and 0.0 < last < 2 * small
    return probs


@pytest.mark.parametrize("atoms", [128, 1024])
@pytest.mark.parametrize("other", [1, 2])
@pytest.mark.parametrize("where", sorted(BOUNDARY_MASSES))
def test_mass_check_at_the_tolerance_boundary(atoms, other, where):
    # products of a law whose exact mass sits one ulp either side of the
    # tolerance with delta(0), or with a two-atom law of probabilities 1/2:
    # both multiply exactly, so the product mass is that mass
    n = atoms // other
    acc = DiscreteDistribution(tuple(map(float, range(n))),
                               tuple(probs_summing_to(n, BOUNDARY_MASSES[where])))
    f = DiscreteDistribution.delta(0.0) if other == 1 else DiscreteDistribution((0.0, 0.5),
                                                                                (0.5, 0.5))
    expected = outcome(lambda: loop_step(acc, 1.0, f))
    assert expected[0] == ("law" if where.startswith("inside") else "error")
    assert outcome(lambda: array_step(acc, 1.0, f)) == expected


@pytest.mark.parametrize("atoms", [128, 1024])
@pytest.mark.parametrize("head", [
    (math.nan, 0.5), (math.inf, 0.5), (math.inf, -math.inf), (1e308, 1e308),
    (-0.25, 0.75),  # the mass is 1, but a probability is negative
])
def test_mass_check_on_non_finite_and_negative_probabilities(atoms, head):
    tail = [0.5 / (atoms - 2)] * (atoms - 2)
    acc = DiscreteDistribution(tuple(map(float, range(atoms))), head + tuple(tail))
    f = DiscreteDistribution.delta(0.0)
    expected = outcome(lambda: loop_step(acc, 1.0, f))
    assert expected[0] == "error"
    assert outcome(lambda: array_step(acc, 1.0, f)) == expected


@pytest.mark.parametrize("atoms", [128, 1024])
def test_mass_check_when_negative_probabilities_cancel(atoms):
    # a float sum that adds 1e17, 0.25 and -1e17 in turn loses the 0.25 and
    # reads about 1; the exact mass is about 1.25, and that is the message
    probs = [1.0 / (atoms - 3)] * atoms
    probs[0], probs[8], probs[16] = 1e17, 0.25, -1e17
    acc = DiscreteDistribution(tuple(map(float, range(atoms))), tuple(probs))
    f = DiscreteDistribution.delta(0.0)
    expected = outcome(lambda: loop_step(acc, 1.0, f))
    assert expected[1].startswith("probabilities sum to 1.25")
    assert outcome(lambda: array_step(acc, 1.0, f)) == expected


@pytest.mark.parametrize("n", [2, PRODUCT_ARRAY_ATOMS, 2 * PRODUCT_ARRAY_ATOMS])
@pytest.mark.parametrize("head", [(math.inf, -math.inf), (1e308, 1e308)])
def test_a_mass_that_cannot_be_summed_reads_as_nan(n, head):
    # math.fsum raises on both: inf + -inf, and an intermediate overflow
    law = DiscreteDistribution(tuple(map(float, range(n))), head + (0.0,) * (n - 2))
    message = r"^probabilities sum to nan, expected 1$"
    with pytest.raises(ValueError, match=message):
        DiscreteDistribution.of(law.atoms, law.probs)
    with pytest.raises(ValueError, match=message):
        scaled_convolution_combine([1.0], [law])


def loop_wasserstein1(f, g):
    """The loop ``wasserstein1`` runs below W1_ARRAY_ATOMS, kept as the
    array kernel's reference."""
    breaks = sorted(set(f.atoms) | set(g.atoms))
    total = 0.0
    cf = 0.0
    cg = 0.0
    fi = 0
    gi = 0
    for left, right in zip(breaks, breaks[1:]):
        while fi < len(f.atoms) and f.atoms[fi] <= left:
            cf += f.probs[fi]
            fi += 1
        while gi < len(g.atoms) and g.atoms[gi] <= left:
            cg += g.probs[gi]
            gi += 1
        total += abs(cf - cg) * (right - left)
    return total


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 400), st.integers(1, 400),
       st.sampled_from(LAW_KINDS), st.sampled_from(LAW_KINDS))
def test_w1_kernel_matches_the_loop_exactly(seed, n, m, kind_f, kind_g):
    rng = random.Random(seed)
    f, g = law_from(rng, n, kind_f), law_from(rng, m, kind_g)
    assert wasserstein1(f, g) == loop_wasserstein1(f, g)
    assert wasserstein1(f, f) == loop_wasserstein1(f, f) == 0.0


def test_w1_kernel_on_shared_and_signed_zero_atoms():
    n = W1_ARRAY_ATOMS
    atoms = tuple(i / 4 - 8 for i in range(n))
    f = DiscreteDistribution(atoms, (1.0 / n,) * n)
    g = DiscreteDistribution(tuple(-0.0 if a == 0 else a + 0.125 * (i % 2)
                                   for i, a in enumerate(atoms)), (1.0 / n,) * n)
    assert 0.0 in f.atoms and -0.0 in g.atoms
    assert wasserstein1(f, g) == loop_wasserstein1(f, g) > 0.0


def test_w1_of_one_atom_laws_gives_the_loops_bits():
    rng = random.Random(14)
    # a one-atom law merged from three atoms keeps a mass just below 1
    merged = DiscreteDistribution.of([2.0, 2.0 + 1e-13, 2.0 + 2e-13], [0.7, 0.2, 0.1])
    assert len(merged) == 1 and merged.probs[0] != 1.0
    pairs = [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (3.5, 3.5), (-1e308, 1e308), (5e-324, 0.0)]
    for _ in range(200):
        a = rng.uniform(-10.0, 10.0) * 10.0 ** rng.randint(-300, 300)
        pairs.append((a, rng.choice([a, -a, a + rng.uniform(-1.0, 1.0), rng.gauss(0.0, 1.0)])))
    laws = [(DiscreteDistribution.delta(a), DiscreteDistribution.delta(b)) for a, b in pairs]
    laws += [(merged, DiscreteDistribution.delta(b)) for b in (-3.0, 2.0, 7.25)]
    for f, g in laws:
        for left, right in ((f, g), (g, f)):
            assert wasserstein1(left, right).hex() == loop_wasserstein1(left, right).hex()


def target_atom(rng, atoms, where):
    """An atom for the one-atom law: on, between, below or above ``atoms``,
    or a zero of either sign."""
    i = rng.randrange(len(atoms) - 1)
    return {
        "on": atoms[i],
        "between": atoms[i] + (atoms[i + 1] - atoms[i]) / 2,
        "below": atoms[0] - rng.choice((1e-13, 0.5, 3.0)),
        "above": atoms[-1] + rng.choice((1e-13, 0.5, 3.0)),
        "zero": 0.0,
        "negative zero": -0.0,
    }[where]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 400), st.sampled_from(LAW_KINDS),
       st.sampled_from(("on", "between", "below", "above", "zero", "negative zero")),
       st.sampled_from((1.0, 0.9999999999999999)))
def test_w1_to_a_one_atom_law_matches_both_kernels_bit_for_bit(seed, n, kind, where, mass):
    # lattice laws hold 0.0 or -0.0 as an atom, so the zero targets also
    # land on an atom of the other sign; wasserstein1 takes the one-atom
    # kernel from W1_ARRAY_ATOMS - 1 atoms on
    rng = random.Random(seed)
    law = law_from(rng, n, kind)
    target = DiscreteDistribution((target_atom(rng, law.atoms, where),), (mass,))
    expected = loop_wasserstein1(law, target).hex()
    assert distributions._wasserstein1_to_atom(law, target).hex() == expected
    assert distributions._wasserstein1_array(law, target).hex() == expected
    assert wasserstein1(law, target).hex() == wasserstein1(target, law).hex() == expected


@pytest.mark.parametrize("zero,atom", [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)])
def test_w1_to_a_zero_atom_of_either_sign(zero, atom):
    atoms = tuple(k / 4 - 16 for k in range(W1_ARRAY_ATOMS))
    law = DiscreteDistribution(tuple(atom if a == 0 else a for a in atoms),
                               (1.0 / len(atoms),) * len(atoms))
    target = DiscreteDistribution((zero,), (0.9999999999999999,))
    expected = loop_wasserstein1(law, target).hex()
    assert distributions._wasserstein1_to_atom(law, target).hex() == expected
    assert distributions._wasserstein1_array(law, target).hex() == expected
    assert wasserstein1(law, target).hex() == wasserstein1(target, law).hex() == expected


@pytest.mark.parametrize("n", [1, 2, W1_ARRAY_ATOMS - 2, W1_ARRAY_ATOMS - 1, 300])
@pytest.mark.parametrize("where", ["target", "first atom", "middle atom", "last atom"])
def test_w1_with_a_nan_atom_is_nan(n, where):
    # one-atom laws, the loop, the one-atom kernel and the array kernel
    law = DiscreteDistribution(tuple(map(float, range(n))), (1.0 / n,) * n)
    target = DiscreteDistribution.delta(0.5)
    if where == "target":
        target = DiscreteDistribution.delta(math.nan)
    else:
        law = with_entry(law, {"first atom": 0, "middle atom": n // 2,
                               "last atom": n - 1}[where], atom=math.nan)
    assert math.isnan(wasserstein1(law, target))
    assert math.isnan(wasserstein1(target, law))
    other = DiscreteDistribution((0.25, 0.75), (0.5, 0.5))
    assert math.isnan(wasserstein1(law if where != "target" else target, other))


def reference_quantile(f, q):
    """The first atom whose running probability sum reaches ``q - 1e-15``
    (the last atom if none does): the rule ``quantile_resample`` searches."""
    acc = 0.0
    for a, p in zip(f.atoms, f.probs):
        acc += p
        if acc >= q - 1e-15:
            return a
    return f.atoms[-1]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 600), st.integers(1, 600), st.sampled_from(LAW_KINDS))
def test_quantile_resample_matches_quantile(seed, n, m, kind):
    f = law_from(random.Random(seed), n, kind)
    assert bits(quantile_resample(f, m)) == bits(reference_resample(f, m))


@pytest.mark.parametrize("probs", [
    (0.25, 0.5, 0.25),                  # the running sum hits 0.25 and 0.75 exactly
    (0.25 - 1e-15, 0.5, 0.25 + 1e-15),  # ... and q - 1e-15, the search key itself
])
def test_quantile_resample_on_a_running_sum_at_a_quantile(probs):
    f = DiscreteDistribution((-1.0, 0.0, 2.0), probs)
    expected = [reference_quantile(f, (k + 0.5) / 2) for k in range(2)]
    assert quantile_resample(f, 2).atoms == tuple(expected) == (-1.0, 0.0)


@pytest.mark.parametrize("m", [0, -1])
def test_resample_size_must_be_positive(m):
    f = DiscreteDistribution.of([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"^m must be at least 1"):
        quantile_resample(f, m)
    with pytest.raises(ValueError, match=r"^atom_cap must be at least 1"):
        scaled_convolution_combine([0.5, 0.5], [f, f], atom_cap=m)


def test_cached_arrays_equal_the_tuples_and_are_read_only():
    rng = random.Random(3)
    wide = law_from(rng, 300, "lattice")
    built = scaled_convolution_combine([0.5, 0.5], [wide, DiscreteDistribution.of([0.0, 1.0], [0.5, 0.5])])
    for law in (DiscreteDistribution.of([2.0, -1.0, 0.5], [0.25, 0.25, 0.5]), wide, built):
        cdf = np.append(0.0, list(itertools.accumulate(law.probs)))
        for got, expected in ((law.atoms_array, np.array(law.atoms)),
                              (law.probs_array, np.array(law.probs)), (law.cdf_array, cdf)):
            assert got.dtype == np.float64
            assert got.tobytes() == expected.tobytes()
            with pytest.raises(ValueError):
                got[0] = 1.0
        assert law.atoms_array is law.atoms_array


def test_law_from_arrays_equals_hashes_and_prints_as_the_tuple_law():
    for law in (law_from(random.Random(5), 200, "lattice"), DiscreteDistribution.delta(-0.0)):
        built = DiscreteDistribution._from_arrays(law.atoms_array.copy(), law.probs_array.copy())
        assert len(built) == len(law)
        assert "atoms" not in built.__dict__  # len reads the arrays
        assert built == law and law == built
        assert hash(built) == hash(law)
        assert repr(built) == repr(law)
        assert bits(built) == bits(law)
        assert built != DiscreteDistribution.delta(1.0)
        assert getattr(built, "dim", None) is None


def test_law_from_arrays_builds_each_tuple_at_most_once(monkeypatch):
    builds = []
    for name in ("atoms", "probs"):
        built = vars(distributions._ArrayLaw)[name]  # a cached_property
        monkeypatch.setattr(built, "func", lambda law, build=built.func, name=name:
                            builds.append(name) or build(law))
    law = DiscreteDistribution._from_arrays(np.array([-1.0, 0.5]), np.array([0.25, 0.75]))
    assert len(law) == 2 and builds == []
    assert law.atoms is law.atoms and law.probs is law.probs
    assert (law.atoms, law.probs) == ((-1.0, 0.5), (0.25, 0.75))
    assert law == DiscreteDistribution((-1.0, 0.5), (0.25, 0.75))
    hash(law), repr(law), law.mean()
    assert sorted(builds) == ["atoms", "probs"]


def test_slln_raw_track_builds_no_tuples_for_laws_only_array_kernels_read(monkeypatch):
    # a running law of at least W1_ARRAY_ATOMS - 1 atoms is read only by array
    # product steps and by the one-atom W1 kernel; smaller ones meet the loops
    laws = []
    from_arrays = DiscreteDistribution._from_arrays
    monkeypatch.setattr(DiscreteDistribution, "_from_arrays",
                        staticmethod(lambda *arrays: laws.append(from_arrays(*arrays)) or laws[-1]))
    slln_run(distribution_space(), slln_law("distributions", "bernoulli"), n_max=300, seed=5,
             mode="raw_track")

    def built(law):
        return "atoms" in law.__dict__ or "probs" in law.__dict__

    wide = [law for law in laws if len(law) >= W1_ARRAY_ATOMS - 1]
    assert len(wide) > 50
    assert sum(map(built, wide)) == 0
    assert sum(map(built, laws)) > 0


def reference_resample(f, m):
    return DiscreteDistribution.of([reference_quantile(f, (k + 0.5) / m) for k in range(m)],
                                   [1.0 / m] * m)


def reference_fold(weights, dists, atom_cap):
    """The convolution as one loop step per law, resampled after each step
    above ``atom_cap``: the oracle of the array-resident fold."""
    acc = DiscreteDistribution.delta(0.0)
    for w, f in zip(weights, dists):
        acc = loop_step(acc, w, f)
        if atom_cap is not None and len(acc) > atom_cap:
            acc = reference_resample(acc, atom_cap)
    return acc


def chain_law(rng, shape):
    if shape == "dirac":
        return DiscreteDistribution.delta(rng.choice((0.0, -0.0, 0.25, -1.5)))
    if shape == "two":
        return DiscreteDistribution.of(rng.sample((0.0, 0.125, 1.0, -0.5), 2), (0.375, 0.625))
    if shape in EDGE_SIZES:
        return law_from(rng, EDGE_SIZES[shape], "spread")
    kind = rng.choice(LAW_KINDS)
    return law_from(rng, rng.randint(3, 9) if shape == "small" else rng.randint(128, 200), kind)


# laws whose product with a one-atom law ("edge", "edge-") or with a two-atom
# law ("half", "half-") has PRODUCT_ARRAY_ATOMS atoms, or one fewer
EDGE_SIZES = {"edge": PRODUCT_ARRAY_ATOMS, "edge-": PRODUCT_ARRAY_ATOMS - 1,
              "half": PRODUCT_ARRAY_ATOMS // 2, "half-": PRODUCT_ARRAY_ATOMS // 2 - 1}


# Each chain mixes one-atom, two-atom and wide laws.  Weight 0 collapses a wide
# law to one atom, so the fold leaves the arrays for a Dirac or loop step and
# comes back; the lattice steps merge product atoms between array steps.
FOLD_CHAINS = [
    # wide, then array steps with merges, crossing ATOM_CAP at the two-atom steps
    (("wide", 1.0), ("two", 0.5), ("two", 0.5), ("two", 0.25), ("dirac", 1.0), ("two", 1.0 / 3.0)),
    # Dirac steps, a wide law, and back to one atom with weight 0
    (("dirac", 1.0), ("dirac", 0.5), ("wide", -0.75), ("wide", 0.0), ("dirac", 1.0),
     ("two", 0.5), ("small", 0.25), ("wide", 0.5), ("dirac", 1e-13)),
    # two wide laws: 128 x 128 product atoms and more, resampled
    (("two", 1.0), ("wide", 0.5), ("wide", 0.5), ("two", 1e-13), ("dirac", -1.0)),
    # collapse right after the first array step, the loop path, then arrays again
    (("wide", 0.0), ("small", 1.0), ("two", 0.5), ("wide", 1.0), ("small", 0.5)),
    # loop steps one atom below the product crossover, then array steps
    (("edge-", 1.0), ("dirac", 0.5), ("half-", 0.0), ("two", 1.0 / 3.0), ("dirac", 1.0),
     ("half", 0.5)),
    # array steps at the crossover; weight 0 merges groups of 31 equal atoms
    (("edge", 1.0), ("half-", 0.0), ("half", 0.5), ("two", 0.5), ("dirac", 0.25)),
]


@pytest.mark.parametrize("chain", FOLD_CHAINS)
@pytest.mark.parametrize("atom_cap", [distributions.ATOM_CAP, 130, None])
@pytest.mark.parametrize("seed", [0, 1])
def test_array_resident_fold_matches_the_per_step_loop(monkeypatch, chain, atom_cap, seed):
    rng = random.Random(seed)
    dists = [chain_law(rng, shape) for shape, _ in chain]
    weights = [w for _, w in chain]
    if atom_cap is None and sum(shape == "wide" for shape, _ in chain) > 1:
        # uncapped wide laws multiply out: keep each at 128 atoms
        dists = [f if len(f) < 128 else law_from(rng, 128, "spread") for f in dists]
    calls = {"array": 0, "resample": 0}
    product_step = distributions._product_step_array
    resample = distributions.quantile_resample

    def counted_step(*args):
        calls["array"] += 1
        return product_step(*args)

    def counted_resample(*args):
        calls["resample"] += 1
        return resample(*args)

    monkeypatch.setattr(distributions, "_product_step_array", counted_step)
    monkeypatch.setattr(distributions, "quantile_resample", counted_resample)
    expected = outcome(lambda: reference_fold(weights, dists, atom_cap))
    assert outcome(lambda: scaled_convolution_combine(weights, dists, atom_cap=atom_cap)) == expected
    assert calls["array"] >= 2
    if atom_cap is not None:
        assert calls["resample"] >= 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32),
       st.lists(st.tuples(st.sampled_from(("dirac", "two", "small", "wide", "edge", "edge-",
                                            "half", "half-")),
                          st.sampled_from((1.0, 0.5, 1.0 / 3.0, -0.75, 0.0, 1e-13))),
                min_size=3, max_size=7),
       st.sampled_from((130, 16)))
def test_array_resident_fold_on_random_chains(seed, chain, atom_cap):
    rng = random.Random(seed)
    dists = [chain_law(rng, shape) for shape, _ in chain]
    weights = [w for _, w in chain]
    expected = outcome(lambda: reference_fold(weights, dists, atom_cap))
    assert outcome(lambda: scaled_convolution_combine(weights, dists, atom_cap=atom_cap)) == expected
