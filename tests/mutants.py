"""Broken instances that the checks must catch, shared by the test modules.

Each factory returns a ``SpaceContract`` with one behaviour broken.
``MUTANTS`` pairs the axiom-level mutants with the ``check_axioms`` rows
that must fail on them; ``golden/battery-mutant-<name>.json`` pins a
``battery`` run with each standing in for ``power-d1``.  The other space
mutants break what only a trace sees: associativity of long combinations,
and a distance that is NaN away from the trace's target.  ``METRIC_MUTANTS``
rescale the compact-sets d=2 metric, which only the embedding rows see; their
kill matrix is in ``test_cli.py``.  ``CE_MUTANTS``
are broken stand-ins for ``probability.conditional_expectation``; their kill
matrix is in ``test_cli.py``.
"""

import dataclasses
import math

from ccspace import compact_sets_space, distribution_space, euclidean_space
from ccspace.core import SpaceContract, combine, convexify
from ccspace.probability import RandomElement


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


def _scaled_hausdorff(factor, name):
    base = compact_sets_space(2)
    return dataclasses.replace(base, name=name, distance=lambda a, b: factor * base.distance(a, b))


def _doubled_hausdorff_mutant():
    return _scaled_hausdorff(2.0, "sets-d2-distance-x2")


def _halved_hausdorff_mutant():
    return _scaled_hausdorff(0.5, "sets-d2-distance-x0.5")


# compact-sets d=2 with a rescaled metric, each with the battery rows that
# must fail on it: every axiom holds for any multiple of a metric, so only the
# embedding's isometry (and, below the true distance, its linear growth) can
# tell
METRIC_MUTANTS = [
    (_doubled_hausdorff_mutant, ("embedding/isometry",)),
    (_halved_hausdorff_mutant, ("embedding/isometry", "embedding/linear_growth")),
]


def _mass_to_first_mutant():
    """Distributions whose combination of three or more terms moves the last
    term's weight onto the first; binary combinations are untouched."""
    base = distribution_space()

    def combine_terms(terms):
        if len(terms) >= 3:
            (w_first, first), *middle, (w_last, _) = terms
            terms = [(w_first + w_last, first), *middle]
        return base.combine_terms(terms)

    return dataclasses.replace(base, name="mass-to-first", combine_terms=combine_terms)


# E X of the default euclidean martingale fixture, the ramp 1 .. 16
MARTINGALE_MEAN = (8.5,)


def _nan_off_the_mean_mutant():
    """Euclidean d=1 whose distance is NaN between ``MARTINGALE_MEAN`` and
    another point with a non-integer coordinate, and correct elsewhere.

    The forward martingale trace measures against the finest level, whose
    values are integers, so only the reverse trace meets a NaN."""
    base = euclidean_space(1)

    def distance(a, b):
        for u, v in ((a, b), (b, a)):
            if u == MARTINGALE_MEAN and v != u and not all(c.is_integer() for c in v):
                return math.nan
        return base.distance(a, b)

    return dataclasses.replace(base, name="euclid-nan-off-the-mean", distance=distance)


# ---------------------------------------------------------------------------
# conditional-expectation mutants, each a stand-in for
# ``probability.conditional_expectation``, which every caller goes through


def _unconditional_ce(x, g):
    """E X on every atom, whatever the partition."""
    mean = x.mean
    return RandomElement(x.space, x.sample_space, {a: mean for a in x.sample_space.atoms})


def _equal_weights_ce(x, g):
    """Each block's convexified values mixed with equal weights, ignoring the
    atom probabilities."""
    values = {}
    for block in g.blocks:
        w = 1.0 / len(block)
        mixed = combine(x.space, [(w, convexify(x.space, x.values[a])) for a in block])
        values.update(dict.fromkeys(block, mixed))
    return RandomElement(x.space, x.sample_space, values)


def _raw_values_ce(x, g):
    """Each block's raw values mixed with the conditional probabilities:
    the convexification is left out."""
    omega = x.sample_space
    values = {}
    for block in g.blocks:
        probs = [omega.prob(a) for a in block]
        total = math.fsum(probs)
        mixed = combine(x.space, [(p / total, x.values[a]) for p, a in zip(probs, block)])
        values.update(dict.fromkeys(block, mixed))
    return RandomElement(x.space, x.sample_space, values)


CE_MUTANTS = (_unconditional_ce, _equal_weights_ce, _raw_values_ce)
