import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccspace import (
    DiscreteDistribution,
    distribution_mean,
    quantile_resample,
    scaled_convolution_combine,
    wasserstein1,
)


def brute_convolution(weights, dists):
    """Oracle: full product enumeration of sum_i w_i X_i."""
    atoms = {}
    for combo in itertools.product(*[list(zip(d.atoms, d.probs)) for d in dists]):
        value = math.fsum(w * a for w, (a, _) in zip(weights, combo))
        prob = math.prod(p for _, p in combo)
        atoms[round(value, 12)] = atoms.get(round(value, 12), 0.0) + prob
    return sorted(atoms.items())


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
    assert distribution_mean(DiscreteDistribution.of([0.0, 1.0], [0.5, 0.5])) == 0.5
    assert distribution_mean(DiscreteDistribution.delta(-3.25)) == -3.25
    got = distribution_mean(DiscreteDistribution.of([1.0, 2.0, 3.0], [0.2, 0.3, 0.5]))
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
