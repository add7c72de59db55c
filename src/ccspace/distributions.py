"""Finitely supported probability laws on R under scaled convolution.

The combination of laws F_1..F_n with weights w_1..w_n is the law of
sum_i w_i X_i for independent X_i ~ F_i, computed by product-atom
enumeration with duplicate merging.  The metric is the Wasserstein-1
distance, integrated exactly from the merged CDF breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

ATOM_MERGE_RESOLUTION = 1e-12
PROB_SUM_TOL = 1e-12
# Scaled convolution quantile-resamples any law with more atoms than this.
ATOM_CAP = 512
_BAD_ATOM = "atoms must be finite with nonnegative probabilities"


@dataclass(frozen=True)
class DiscreteDistribution:
    """Strictly increasing atoms with positive probabilities summing to one."""

    atoms: tuple[float, ...]
    probs: tuple[float, ...]

    @staticmethod
    def of(atoms: Iterable[float], probs: Iterable[float]) -> "DiscreteDistribution":
        pairs = sorted(zip((float(a) for a in atoms), (float(p) for p in probs)))
        if not pairs:
            raise ValueError("distribution needs at least one atom")
        _check_mass(math.fsum(p for _, p in pairs))
        merged_atoms: list[float] = []
        merged_probs: list[float] = []
        for a, p in pairs:
            if p < 0.0 or not math.isfinite(a):
                raise ValueError(_BAD_ATOM)
            if p == 0.0:
                continue
            if merged_atoms and a - merged_atoms[-1] <= ATOM_MERGE_RESOLUTION:
                merged_probs[-1] += p
            else:
                merged_atoms.append(a)
                merged_probs.append(p)
        if not merged_atoms:
            raise ValueError("distribution needs positive probability mass")
        return DiscreteDistribution(tuple(merged_atoms), tuple(merged_probs))

    @staticmethod
    def delta(x: float) -> "DiscreteDistribution":
        return DiscreteDistribution((float(x),), (1.0,))

    def mean(self) -> float:
        return math.fsum(a * p for a, p in zip(self.atoms, self.probs))

    def quantile(self, q: float) -> float:
        acc = 0.0
        for a, p in zip(self.atoms, self.probs):
            acc += p
            if acc >= q - 1e-15:
                return a
        return self.atoms[-1]

    def __len__(self) -> int:
        return len(self.atoms)


def _check_mass(total: float) -> None:
    # NaN fails the comparison, so it is rejected with the sum
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")


def quantile_resample(f: DiscreteDistribution, m: int) -> DiscreteDistribution:
    """m equal-probability atoms at mid-quantiles F^-1((k - 1/2) / m).

    The Wasserstein-1 error of this reduction is at most
    (max atom - min atom) / m.
    """
    atoms = [f.quantile((k + 0.5) / m) for k in range(m)]
    return DiscreteDistribution.of(atoms, [1.0 / m] * m)


def scaled_convolution_combine(
    weights: Sequence[float],
    dists: Sequence[DiscreteDistribution],
    atom_cap: int | None = ATOM_CAP,
) -> DiscreteDistribution:
    """Law of sum_i w_i X_i with the X_i independent.

    Product atoms are enumerated incrementally with merging; whenever the atom
    count exceeds ``atom_cap`` the law is quantile-resampled down to
    ``atom_cap`` equal-probability atoms (``atom_cap=None`` never resamples).
    """
    if len(weights) != len(dists):
        raise ValueError("weights and distributions must align")
    if not dists:
        raise ValueError("need at least one distribution")
    acc = DiscreteDistribution.delta(0.0)
    for w, f in zip(weights, dists):
        if len(acc) == 1 and len(f) == 1:
            acc = _dirac_step(acc, w, f)
        else:
            atoms: list[float] = []
            probs: list[float] = []
            for a, pa in zip(acc.atoms, acc.probs):
                base = a
                for b, pb in zip(f.atoms, f.probs):
                    atoms.append(base + w * b)
                    probs.append(pa * pb)
            acc = DiscreteDistribution.of(atoms, probs)
        if atom_cap is not None and len(acc) > atom_cap:
            acc = quantile_resample(acc, atom_cap)
    return acc


def _dirac_step(acc: DiscreteDistribution, w: float, f: DiscreteDistribution) -> DiscreteDistribution:
    """``DiscreteDistribution.of([a + w*b], [pa*pb])`` for one-atom ``acc`` and
    ``f``: the same checks, without the sort and merge.  A mass within
    ``PROB_SUM_TOL`` of 1 is positive, so no zero-mass check is needed."""
    atom = float(acc.atoms[0] + w * f.atoms[0])
    prob = float(acc.probs[0] * f.probs[0])
    _check_mass(prob)
    if not math.isfinite(atom):
        raise ValueError(_BAD_ATOM)
    return DiscreteDistribution((atom,), (prob,))


def wasserstein1(f: DiscreteDistribution, g: DiscreteDistribution) -> float:
    """Exact integral of |F(t) - G(t)| over the merged breakpoints."""
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
