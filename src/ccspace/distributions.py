"""Finitely supported probability laws on R under scaled convolution.

The combination of laws F_1..F_n with weights w_1..w_n is the law of
sum_i w_i X_i for independent X_i ~ F_i, computed by product-atom
enumeration with duplicate merging.  The metric is the Wasserstein-1
distance, integrated exactly from the merged CDF breakpoints.  Large operands
take numpy array kernels that make the same floating-point operations in the
same order as the loops, so both paths give bit-identical laws and distances.
numpy is imported inside the kernels and the array properties, when one
first runs: importing this module, and every law and distance that stays on
the loops, does not load it.

A law keeps its atoms and probabilities as tuples; the kernels read them as
read-only float64 arrays that the law converts once and caches
(``atoms_array``, ``probs_array``, and ``cdf_array`` for the running sums of
the probabilities).  A convolution is one loop over its product steps.  While
array steps follow one another it holds the running law as arrays, and builds
the law when a Dirac or loop step, a resample or the end of the combination
needs it.  A Dirac step (two one-atom laws) makes the loop's ``a + w*b`` and
``pa*pb`` and the constructor's checks, with its messages; while Dirac steps
follow one another, as when a conditional expectation mixes the Dirac laws
that convexification gives, the running law is held as two floats, its atom
and its mass, and one law is built at the end of the run.  A law built from
a kernel's arrays keeps them, and builds its tuples only when something reads
them, once; it is a private subclass, whose equality, hashing, ``repr`` and
``len`` are those of the law built from the tuples.  Laws built from tuples
keep the dataclass's plain attributes.

A law's order is a stable sort of its atoms alone: equal atoms keep their
input order, and a merge group keeps its first atom (and that atom's sign).
The loop step lists its product atoms in the order that the product kernel's
stable sort sees, so both give the same law.  Three shortcuts skip work that
cannot change its result.  When no atoms come within
``ATOM_MERGE_RESOLUTION`` of each other and no probability is zero, nothing
is merged; when one operand has one atom, the step only scales and shifts
the other law, and if its atoms come out strictly increasing as well,
nothing is sorted either.  The mass check accepts a plain
float sum when its error bound (Higham 1993) keeps the exact sum inside
``PROB_SUM_TOL``; every other mass, and every rejection, takes the exact
``math.fsum``.  The distance to a one-atom law places that atom among the
other law's atoms with one binary search instead of sorting the breakpoints,
and the distance between two one-atom laws is the loop's one term, the lower
law's mass times the gap.  Laws, distances, verdicts and error messages do
not depend on which path ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

ATOM_MERGE_RESOLUTION = 1e-12
PROB_SUM_TOL = 1e-12
# Scaled convolution quantile-resamples any law with more atoms than this.
ATOM_CAP = 512
# A product step with at least this many product atoms (len(acc) * len(f))
# runs as an array kernel; below it the loop step is faster.  Measured on the
# steps of the slln raw_track fold (binomial running laws, best of 9 x 200
# calls, 2-vCPU host, numpy 2): at 64 product atoms the array step took 14-26 us
# against the loop's 42-52 us, on the scaling, shift and two-atom steps alike;
# at 32 they were level on the scaling step (23 against 26 us).
PRODUCT_ARRAY_ATOMS = 64
# A Wasserstein-1 distance between laws with at least this many atoms
# together runs as an array kernel; below it the loop is faster.  Measured on
# laws fresh from the constructor, whose arrays are not yet cached (best of 7
# x 400 calls, same host): 63 + 64 atoms took 104 us in the loop and 101 us
# in the array kernel, 48 + 48 atoms 83 and 100 us.
W1_ARRAY_ATOMS = 128
_BAD_ATOM = "atoms must be finite with nonnegative probabilities"
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class DiscreteDistribution:
    """Strictly increasing atoms with positive probabilities summing to one."""

    atoms: tuple[float, ...]
    probs: tuple[float, ...]

    @staticmethod
    def of(atoms: Iterable[float], probs: Iterable[float]) -> "DiscreteDistribution":
        return DiscreteDistribution._of_floats(zip(map(float, atoms), map(float, probs)))

    @staticmethod
    def _of_floats(pairs: Iterable[tuple[float, float]]) -> "DiscreteDistribution":
        """``of`` for ``(atom, probability)`` pairs of Python floats, as the
        fixture parser gives them: the same checks and messages, without
        converting each number again."""
        pairs = sorted(pairs, key=itemgetter(0))
        if not pairs:
            raise ValueError("distribution needs at least one atom")
        _check_mass([p for _, p in pairs])
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

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other: object) -> bool:
        # by value, so that a law from a kernel's arrays (a subclass) equals
        # the law built from the same tuples
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return (self.atoms, self.probs) == (other.atoms, other.probs)

    def __repr__(self) -> str:
        # the dataclass's repr, under this class's name for the subclass too
        return f"DiscreteDistribution(atoms={self.atoms!r}, probs={self.probs!r})"

    @cached_property
    def atoms_array(self) -> np.ndarray:
        """The atoms as a read-only float64 array, converted once."""
        return _read_only(_as_array(self.atoms))

    @cached_property
    def probs_array(self) -> np.ndarray:
        """The probabilities as a read-only float64 array, converted once."""
        return _read_only(_as_array(self.probs))

    @cached_property
    def cdf_array(self) -> np.ndarray:
        """``cdf_array[k]`` is the running sum of the first k probabilities,
        added left to right (``np.cumsum`` is sequential); ``cdf_array[0]`` is 0."""
        import numpy as np

        cdf = np.empty(len(self) + 1)
        cdf[0] = 0.0
        np.cumsum(self.probs_array, out=cdf[1:])
        return _read_only(cdf)

    @staticmethod
    def _from_arrays(atoms: np.ndarray, probs: np.ndarray) -> "DiscreteDistribution":
        """The law of a kernel's arrays, which it keeps as its cached arrays;
        its ``atoms`` and ``probs`` tuples are built when first read."""
        law = object.__new__(_ArrayLaw)
        law.__dict__.update(atoms_array=_read_only(atoms), probs_array=_read_only(probs))
        return law


class _ArrayLaw(DiscreteDistribution):
    """A law from a kernel's arrays, which builds each tuple on first read and
    keeps it.  A subclass, so that laws built from tuples pay nothing for the
    laziness: their ``atoms`` and ``probs`` stay plain instance attributes."""

    @cached_property
    def atoms(self) -> tuple[float, ...]:
        return tuple(self.atoms_array.tolist())

    @cached_property
    def probs(self) -> tuple[float, ...]:
        return tuple(self.probs_array.tolist())

    def __len__(self) -> int:
        return len(self.atoms_array)


def _as_array(values: Sequence[float]) -> np.ndarray:
    import numpy as np

    # with a count, np.fromiter converts a tuple of floats faster than np.asarray
    return np.fromiter(values, dtype=float, count=len(values))


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


_ORIGIN = DiscreteDistribution.delta(0.0)


def _check_mass(probs: Iterable[float]) -> None:
    """Reject probabilities whose exact sum is not within ``PROB_SUM_TOL`` of 1.

    A sum that cannot be taken (``inf + -inf``, or an intermediate overflow)
    is reported as NaN; NaN fails the comparison, so it is rejected too.
    """
    try:
        total = math.fsum(probs)
    except (ValueError, OverflowError):
        total = math.nan
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")


def _check_mass_array(probs: np.ndarray, low: float) -> None:
    """``_check_mass(probs)`` that skips the exact sum when it cannot matter;
    ``low`` is ``probs.min()``.

    Adding n nonnegative terms in any order gives a float sum t within
    gamma_(n-1)·s of the exact sum s, where gamma_k = k·u / (1 - k·u) and
    u = 2**-53 (Higham 1993).  The slack can only pass when (n - 1)·u is far
    below 1, so 2·(n - 1)·u·t bounds that error with room for the rounding of
    the slack itself, and 2**-52 covers the rounding of the exact sum that
    ``_check_mass`` compares.  A mass not accepted here, NaN, inf and negative
    terms included, is judged by ``_check_mass`` alone, so verdicts and
    messages are the exact ones.
    """
    if low >= 0.0:  # false for NaN
        total = float(probs.sum())
        slack = 2.0 * (len(probs) - 1) * _UNIT_ROUNDOFF * total + 2.0 ** -52
        if abs(total - 1.0) + slack <= PROB_SUM_TOL:
            return
    _check_mass(probs.tolist())


def quantile_resample(f: DiscreteDistribution, m: int) -> DiscreteDistribution:
    """m equal-probability atoms at mid-quantiles F^-1((k - 1/2) / m).

    The Wasserstein-1 error of this reduction is at most
    (max atom - min atom) / m.  Atom k is the first atom of ``f`` whose
    running probability sum reaches ``(k + 0.5) / m - 1e-15`` (the last atom
    if none does), found by binary search in the cumulative probabilities:
    O(n + m log n).
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m!r}")
    import numpy as np

    cum = f.cdf_array[1:]  # the running probability sums, one per atom
    keys = (np.arange(m) + 0.5) / m - 1e-15
    picks = np.minimum(np.searchsorted(cum, keys, "left"), len(cum) - 1)
    return DiscreteDistribution.of(f.atoms_array[picks].tolist(), [1.0 / m] * m)


def scaled_convolution_combine(
    weights: Sequence[float],
    dists: Sequence[DiscreteDistribution],
    atom_cap: int | None = ATOM_CAP,
) -> DiscreteDistribution:
    """Law of sum_i w_i X_i with the X_i independent.

    Product atoms are enumerated incrementally with merging; whenever the atom
    count exceeds ``atom_cap`` the law is quantile-resampled down to
    ``atom_cap`` equal-probability atoms (``atom_cap=None`` never resamples).
    A step with at least ``PRODUCT_ARRAY_ATOMS`` product atoms runs on the
    running law's arrays; otherwise two one-atom laws take the Dirac step and
    the rest the loop step.
    """
    if len(weights) != len(dists):
        raise ValueError("weights and distributions must align")
    if not dists:
        raise ValueError("need at least one distribution")
    if atom_cap is not None and atom_cap < 1:
        raise ValueError(f"atom_cap must be at least 1 or None, got {atom_cap!r}")
    acc = _ORIGIN
    # acc's atoms and probabilities, held in its place while array steps
    # follow one another
    arrays: tuple[np.ndarray, np.ndarray] | None = None
    # while Dirac steps follow one another, acc's one atom and its mass are
    # held in its place as two floats
    dirac = False
    atom = prob = 0.0
    for w, f in zip(weights, dists):
        # a law built from tuples is sized by its tuple, without a call of
        # the Python-level __len__; a law from a kernel's arrays, by its array
        size = len(f.atoms) if type(f) is DiscreteDistribution else len(f)
        if dirac:
            if size == 1:
                atom, prob = _dirac_step(atom, prob, w, f)
                continue
            acc, dirac = DiscreteDistribution((atom,), (prob,)), False
        if arrays is not None and len(arrays[0]) * size < PRODUCT_ARRAY_ATOMS:
            acc, arrays = DiscreteDistribution._from_arrays(*arrays), None
        if arrays is not None or len(acc) * size >= PRODUCT_ARRAY_ATOMS:
            arrays = _product_step_array(*(arrays or (acc.atoms_array, acc.probs_array)), w, f)
            if atom_cap is None or len(arrays[0]) <= atom_cap:
                continue
            acc, arrays = DiscreteDistribution._from_arrays(*arrays), None
        elif len(acc) == 1 and size == 1:
            atom, prob = _dirac_step(acc.atoms[0], acc.probs[0], w, f)
            dirac = True
            continue
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
    if dirac:
        return DiscreteDistribution((atom,), (prob,))
    return acc if arrays is None else DiscreteDistribution._from_arrays(*arrays)


def _dirac_step(atom: float, prob: float, w: float,
                f: DiscreteDistribution) -> tuple[float, float]:
    """The atom and mass of ``DiscreteDistribution.of([atom + w*b], [prob*pb])``
    for a one-atom ``f``: the same checks, without the sort and merge.  The
    mass of one atom is its exact sum, so ``_check_mass`` is called only to
    reject it; a mass within ``PROB_SUM_TOL`` of 1 is positive, so no
    zero-mass check is needed."""
    atom = float(atom + w * f.atoms[0])
    prob = float(prob * f.probs[0])
    if not abs(prob - 1.0) <= PROB_SUM_TOL:
        _check_mass((prob,))
    if not math.isfinite(atom):
        raise ValueError(_BAD_ATOM)
    return atom, prob


def _product_step_array(atoms: np.ndarray, probs: np.ndarray, w: float,
                        f: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The product step of the law ``(atoms, probs)`` with ``f`` as array
    operations, bit for bit: the same ``a + w*b`` and ``pa*pb``, the same
    checks, the same stable sort of the atoms and the same merge into each
    group's first atom, with left-to-right sums.  Returns the new law's atoms
    and probabilities.

    When no probability is zero and every gap exceeds
    ``ATOM_MERGE_RESOLUTION``, nothing merges or drops and the sorted arrays
    are the law.  A one-atom operand makes the product atoms a scaled and
    shifted copy of the other law, in monotone order; when they are strictly
    increasing, more than the resolution apart, with positive probabilities,
    they are the law as they are, unsorted.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        w = float(w)
        one_atom = len(f) == 1 or len(atoms) == 1
        if len(f) == 1:
            atoms = atoms + w * f.atoms[0]
            probs = probs * f.probs[0]
        elif len(atoms) == 1:
            atoms = float(atoms[0]) + w * f.atoms_array
            probs = float(probs[0]) * f.probs_array
        else:
            atoms = (atoms[:, None] + w * f.atoms_array).ravel()
            probs = np.multiply.outer(probs, f.probs_array).ravel()
        low = probs.min()
        _check_mass_array(probs, low)
        if not (low >= 0.0 and np.isfinite(atoms).all()):
            raise ValueError(_BAD_ATOM)
        if one_atom and low > 0.0:
            gaps = atoms[1:] - atoms[:-1]
            if gaps.min(initial=math.inf) > ATOM_MERGE_RESOLUTION:
                return atoms, probs
        order = np.argsort(atoms, kind="stable")
        if low == 0.0:  # products that underflowed to 0 drop out
            order = order[probs[order] != 0.0]
        atoms = atoms[order]
        probs = probs[order]
        n = len(atoms)
        gaps = atoms[1:] - atoms[:-1]
        if gaps.min(initial=math.inf) > ATOM_MERGE_RESOLUTION:
            return atoms, probs
        # a gap above the resolution always starts a group; inside a run of
        # smaller gaps whose span exceeds the resolution, the loop's rule
        # (distance to the group's first atom) decides atom by atom
        first = np.empty(n + 1, dtype=bool)
        first[0] = first[n] = True
        np.greater(gaps, ATOM_MERGE_RESOLUTION, out=first[1:n])
        bounds = np.flatnonzero(first)
        sizes = bounds[1:] - bounds[:-1]
        longest = int(sizes.max())
        if longest > 2:  # a run of two spans one gap, which is within the resolution
            runs = bounds[:-1]
            wide = atoms[bounds[1:] - 1] - atoms[runs] > ATOM_MERGE_RESOLUTION
            for lo, hi in zip(runs[wide].tolist(), bounds[1:][wide].tolist()):
                head = atoms[lo]
                for i in range(lo + 1, hi):
                    if atoms[i] - head > ATOM_MERGE_RESOLUTION:
                        first[i] = True
                        head = atoms[i]
            bounds = np.flatnonzero(first)
            sizes = bounds[1:] - bounds[:-1]
            longest = int(sizes.max())
        starts = bounds[:-1]
        merged = probs[starts]
        # group g's sum is probs[starts[g]] + probs[starts[g] + 1] + ..., added
        # one member at a time across all groups still that long
        live = np.arange(len(starts))
        for j in range(1, longest):
            live = live[sizes[live] > j]
            merged[live] += probs[starts[live] + j]
        return atoms[starts], merged


def wasserstein1(f: DiscreteDistribution, g: DiscreteDistribution) -> float:
    """Exact integral of |F(t) - G(t)| over the merged breakpoints."""
    # two one-atom laws built from tuples, sized by their tuples without a
    # call of the Python-level __len__: the loop's one term, the lower law's
    # mass times the gap (laws from a kernel's arrays take the loop)
    if type(f) is type(g) is DiscreteDistribution and len(f.atoms) == 1 == len(g.atoms):
        a = f.atoms[0]
        b = g.atoms[0]
        if a == b:
            return 0.0
        return f.probs[0] * (b - a) if a < b else g.probs[0] * (a - b)
    if len(f) + len(g) >= W1_ARRAY_ATOMS:
        if len(g) == 1:
            return _wasserstein1_to_atom(f, g)
        if len(f) == 1:
            return _wasserstein1_to_atom(g, f)
        return _wasserstein1_array(f, g)
    fa, fp, ga, gp = f.atoms, f.probs, g.atoms, g.probs
    breaks = sorted(set(fa) | set(ga))
    total = 0.0
    cf = 0.0
    cg = 0.0
    fi = 0
    gi = 0
    for left, right in zip(breaks, breaks[1:]):
        while fi < len(fa) and fa[fi] <= left:
            cf += fp[fi]
            fi += 1
        while gi < len(ga) and ga[gi] <= left:
            cg += gp[gi]
            gi += 1
        total += abs(cf - cg) * (right - left)
    return total


def _wasserstein1_array(f: DiscreteDistribution, g: DiscreteDistribution) -> float:
    """The loop of ``wasserstein1`` as array operations, bit for bit: the CDF
    at each breakpoint is the same running sum (``np.cumsum`` is sequential),
    and the terms are added left to right."""
    import numpy as np

    fa = f.atoms_array
    ga = g.atoms_array
    breaks = np.sort(np.concatenate((fa, ga)))
    breaks = breaks[np.append(True, breaks[1:] != breaks[:-1])]
    left = breaks[:-1]
    cf = f.cdf_array[np.searchsorted(fa, left, "right")]
    cg = g.cdf_array[np.searchsorted(ga, left, "right")]
    terms = np.abs(cf - cg) * (breaks[1:] - left)
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


def _wasserstein1_to_atom(f: DiscreteDistribution, g: DiscreteDistribution) -> float:
    """``_wasserstein1_array(f, g)`` for a one-atom ``g``, bit for bit.  One
    search places g's atom t among f's increasing atoms, so the breakpoints
    need no sort: G is 0 left of t, where |F - G| is F, and g's mass q from t
    on.  When t is one of f's atoms it is kept as a second breakpoint, whose
    interval adds a zero term.  A NaN atom makes a NaN width, so the distance
    is NaN."""
    import numpy as np

    atoms = f.atoms_array
    cdf = f.cdf_array
    k = int(atoms.searchsorted(g.atoms[0]))
    breaks = np.concatenate((atoms[:k], g.atoms, atoms[k:]))
    diff = np.concatenate((cdf[1:k + 1], cdf[k:-1]))  # F at each left breakpoint
    diff[k:] -= g.probs[0]
    terms = np.abs(diff, out=diff) * (breaks[1:] - breaks[:-1])
    return float(np.cumsum(terms)[-1])
