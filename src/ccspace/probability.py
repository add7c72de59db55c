"""Random elements on finite sample spaces: expectation, conditional
expectation, filtrations, martingales, and Jensen-type inequalities.

Every sample space is finite, so each random element is simple and its
expectation is the probability-weighted combination of the convexified
values, evaluated in exact arithmetic.

A random element stores its values once, as a tuple in the order of the
sample space's atoms (``ordered``); ``values`` is a read-only label view of
it, built on first read.  It convexifies them once, on first use, with one
``convexify`` call per distinct value object, into a second tuple in that
order (``ordered_convexified``).  Everything here reads by position: a
block's labels become indices into the sample space
(``FiniteSampleSpace.positions``, which rejects a label that is no atom with
``prob``'s error), and derived elements are built in atom order.  A
conditional expectation is constant on each block, so along a martingale
trace most atoms share a value object.  ``martingale_convergence_trace``
builds the sequence once and returns both traces: the forward one against
K X, the convexified values, which the finest level must equal; the reverse
one against E X, which the coarsest level must equal.
``expected_distance``, ``delta_p`` and the martingale guard take
``space.distance`` once per distinct pair of value objects
(``_pair_distances``) and still sum one term per atom; when either
element's value objects are all distinct (``distinct_values``, cached), no
pair can repeat and the distances go atom by atom.  An element caches its
expectation too (``mean``), and the seeded suites read it there.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType, SimpleNamespace
from typing import Hashable, Mapping, Sequence

from .axioms import AxiomReport, Check, CheckResult, _sample_weights, nan_max, run_trials
from .core import EXACT_TOL, Point, SpaceContract, WeightedCombination, combine, convexify
from .distributions import _check_mass
from .embedding import AffineFunctional

Label = Hashable


@dataclass(frozen=True)
class FiniteSampleSpace:
    """Atoms with strictly positive probabilities summing to one."""

    atoms: tuple[Label, ...]
    probs: tuple[float, ...]

    @staticmethod
    def of(atoms: Sequence[Label], probs: Sequence[float]) -> "FiniteSampleSpace":
        atoms = tuple(atoms)
        probs = tuple(float(p) for p in probs)
        if len(atoms) != len(probs) or not atoms:
            raise ValueError("atoms and probabilities must align and be nonempty")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atom labels must be distinct")
        if not all(0.0 < p < math.inf for p in probs):
            raise ValueError("atom probabilities must be finite and strictly positive")
        _check_mass(probs)
        return FiniteSampleSpace(atoms, probs)

    @staticmethod
    def uniform(n: int) -> "FiniteSampleSpace":
        """``n`` equally likely atoms labelled ``w0`` .. ``w{n-1}``."""
        return FiniteSampleSpace.of(tuple(f"w{i}" for i in range(n)), (1.0 / n,) * n)

    @cached_property
    def _position(self) -> dict[Label, int]:
        """atom -> index into ``atoms`` and ``probs``, built once per instance."""
        return {a: i for i, a in enumerate(self.atoms)}

    def prob(self, atom: Label) -> float:
        try:
            return self.probs[self._position[atom]]
        except KeyError:
            raise _not_an_atom(atom) from None

    def positions(self, atoms: Sequence[Label]) -> list[int]:
        """The index into ``atoms`` and ``probs`` of each label, in order;
        ``prob``'s ``ValueError`` for the first label that is no atom."""
        try:
            return [*map(self._position.__getitem__, atoms)]
        except KeyError as exc:
            raise _not_an_atom(exc.args[0]) from None

    def __len__(self) -> int:
        return len(self.atoms)


def _not_an_atom(atom: Label) -> ValueError:
    return ValueError(f"{atom!r} is not an atom of the sample space")


@dataclass(frozen=True, init=False)
class RandomElement:
    """A total map from sample-space atoms into a combination space.

    The values are stored once, as a tuple in atom order (``ordered``), so
    nothing cached from them can go stale; ``values`` is a read-only label
    view of it, built on first read.
    """

    space: SpaceContract
    sample_space: FiniteSampleSpace
    ordered: tuple[Point, ...]

    def __init__(
        self, space: SpaceContract, sample_space: FiniteSampleSpace, values: Mapping[Label, Point]
    ):
        """The element with value ``values[a]`` at each atom ``a``; every atom
        needs a value, and every label must be an atom."""
        atoms = sample_space.atoms
        missing = [a for a in atoms if a not in values]
        if missing:
            raise ValueError(f"values missing for atoms {missing!r}")
        if len(values) != len(atoms):
            raise _not_an_atom(next(a for a in values if a not in sample_space._position))
        self.__dict__.update(space=space, sample_space=sample_space,
                             ordered=tuple(map(values.__getitem__, atoms)))

    @staticmethod
    def _of_ordered(
        space: SpaceContract, omega: FiniteSampleSpace, ordered: tuple[Point, ...]
    ) -> "RandomElement":
        """The element whose value at ``omega.atoms[i]`` is ``ordered[i]``."""
        x = object.__new__(RandomElement)
        x.__dict__.update(space=space, sample_space=omega, ordered=ordered)
        return x

    @cached_property
    def values(self) -> Mapping[Label, Point]:
        """atom -> value, read-only."""
        return MappingProxyType(dict(zip(self.sample_space.atoms, self.ordered)))

    @cached_property
    def _distinct(self) -> dict[int, Point]:
        """id -> value object, one entry per distinct value object, in order
        of first appearance."""
        return dict(zip(map(id, self.ordered), self.ordered))

    @cached_property
    def ordered_convexified(self) -> tuple[Point, ...]:
        """The convexified values in atom order, one ``convexify`` call per
        distinct value object."""
        space = self.space
        by_id = {key: convexify(space, v) for key, v in self._distinct.items()}
        return tuple(map(by_id.__getitem__, map(id, self.ordered)))

    @cached_property
    def mean(self) -> Point:
        """``expectation(self)``, computed on first use."""
        return expectation(self)

    @cached_property
    def distinct_values(self) -> bool:
        """Whether no two atoms share a value object."""
        return len(self._distinct) == len(self.ordered)


@dataclass(frozen=True)
class FinitePartition:
    """Disjoint nonempty blocks of atoms covering the sample space."""

    blocks: tuple[tuple[Label, ...], ...]

    @staticmethod
    def of(blocks: Sequence[Sequence[Label]], omega: FiniteSampleSpace) -> "FinitePartition":
        order = omega._position
        norm = []
        seen: set[Label] = set()
        for block in blocks:
            try:
                block = tuple(sorted(block, key=order.__getitem__))
            except KeyError as exc:
                raise _not_an_atom(exc.args[0]) from None
            if not block:
                raise ValueError("partition blocks must be nonempty")
            if not seen.isdisjoint(block):
                raise ValueError("partition blocks must be disjoint")
            seen.update(block)
            norm.append(block)
        # every label is an atom, so the blocks cover omega when they hold as many
        if len(seen) != len(omega):
            raise ValueError("partition must cover the sample space")
        norm.sort(key=lambda b: order[b[0]])
        return FinitePartition(tuple(norm))

    @staticmethod
    def trivial(omega: FiniteSampleSpace) -> "FinitePartition":
        return FinitePartition.of([omega.atoms], omega)

    @staticmethod
    def finest(omega: FiniteSampleSpace) -> "FinitePartition":
        return FinitePartition.of([(a,) for a in omega.atoms], omega)

    @cached_property
    def _block_index(self) -> dict[Label, int]:
        """atom -> index of its block, built once per instance."""
        return {a: i for i, block in enumerate(self.blocks) for a in block}

    def block_of(self, atom: Label) -> tuple[Label, ...]:
        return self.blocks[self._block_index[atom]]

    def refines(self, coarser: "FinitePartition") -> bool:
        """Every block lies inside one block of ``coarser``."""
        owner = coarser._block_index
        for block in self.blocks:
            homes = set(map(owner.get, block))
            if len(homes) != 1 or None in homes:
                return False
        return True


@dataclass(frozen=True)
class Filtration:
    """Partitions in increasing order: each entry refines its predecessor."""

    partitions: tuple[FinitePartition, ...]

    @staticmethod
    def of(partitions: Sequence[FinitePartition]) -> "Filtration":
        partitions = tuple(partitions)
        if not partitions:
            raise ValueError("filtration needs at least one partition")
        for earlier, later in zip(partitions, partitions[1:]):
            if not later.refines(earlier):
                raise ValueError("each partition must refine its predecessor")
        return Filtration(partitions)

    def __len__(self) -> int:
        return len(self.partitions)


def dyadic_filtration(omega: FiniteSampleSpace) -> Filtration:
    """Trivial partition down to singletons by repeated halving.

    Each block is a run of consecutive atoms, in atom order, and each level
    halves the blocks of the one before, so the partitions are built in the
    normal form ``FinitePartition.of`` gives and refine one another without
    being checked again."""
    n = len(omega)
    if n & (n - 1):
        raise ValueError("dyadic filtration needs a power-of-two atom count")
    atoms = omega.atoms
    parts = []
    size = n
    while size >= 1:
        parts.append(FinitePartition(tuple(atoms[i : i + size] for i in range(0, n, size))))
        size //= 2
    return Filtration(tuple(parts))


# ---------------------------------------------------------------------------
# expectation and conditional expectation


def expectation(x: RandomElement) -> Point:
    """Probability-weighted combination of the convexified values.

    The weights are the sample space's probabilities, which
    ``FiniteSampleSpace.of`` checked, so they are passed as checked terms."""
    terms = tuple(zip(x.sample_space.probs, x.ordered_convexified))
    return combine(x.space, WeightedCombination(terms))


def _pair_distances(x: RandomElement, y: RandomElement) -> list[float]:
    """``d(x.ordered[i], y.ordered[i])`` for each atom index in order, with one
    ``space.distance`` call per distinct pair of value objects, in order of
    first appearance.

    When either element's value objects are distinct, no pair repeats, and
    the distances go atom by atom.
    """
    distance = x.space.distance
    xs, ys = x.ordered, y.ordered
    if x.distinct_values or y.distinct_values:
        return [*map(distance, xs, ys)]
    keys = [*zip(map(id, xs), map(id, ys))]
    pairs = dict(zip(keys, zip(xs, ys)))
    measured = {key: distance(u, v) for key, (u, v) in pairs.items()}
    return [*map(measured.__getitem__, keys)]


def expected_distance(x: RandomElement, y: RandomElement) -> float:
    """E d(X, Y), which is ``delta_p`` with p = 1."""
    return delta_p(x, y, 1)


def delta_p(x: RandomElement, y: RandomElement, p: int = 1) -> float:
    """(E d^p(X, Y))^(1/p) for p in {1, 2}."""
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    _check_same_base(x, y)
    distances = _pair_distances(x, y)
    if p == 2:
        distances = [d ** 2 for d in distances]
    total = math.fsum(map(operator.mul, x.sample_space.probs, distances))
    return total ** (1.0 / p)


def mix_elements(lam: float, x: RandomElement, y: RandomElement) -> RandomElement:
    _check_same_base(x, y)
    space = x.space
    mixed = tuple(
        combine(space, [(lam, u), (1.0 - lam, v)]) for u, v in zip(x.ordered, y.ordered)
    )
    return RandomElement._of_ordered(space, x.sample_space, mixed)


def _check_same_base(x: RandomElement, y: RandomElement) -> None:
    if x.space is not y.space or x.sample_space != y.sample_space:
        raise ValueError("random elements must share space and sample space")


def conditional_expectation(x: RandomElement, g: FinitePartition) -> RandomElement:
    """Blockwise probability-weighted combination of convexified values.

    The result is measurable for ``g`` (constant on each block) and takes
    convex-point values.  A block's weights p_i / P(block) come from the
    checked probabilities, so they are positive and sum to 1 within
    ``WEIGHT_SUM_TOL``; they are passed as checked terms.
    """
    space = x.space
    omega = x.sample_space
    probs = omega.probs
    convexified = x.ordered_convexified
    values: list[Point] = [None] * len(omega)
    for block in g.blocks:
        where = omega.positions(block)
        block_probs = [probs[i] for i in where]
        block_prob = math.fsum(block_probs)
        if block_prob <= 0.0:
            raise ValueError(f"zero-probability block {block!r}")
        mixed = combine(space, WeightedCombination(
            tuple([(p / block_prob, convexified[i]) for p, i in zip(block_probs, where)])))
        for i in where:
            values[i] = mixed
    # every label is an atom, so the blocks cover omega when they hold as many
    if len(g._block_index) != len(omega):
        covered = g._block_index
        missing = [a for a in omega.atoms if a not in covered]
        raise ValueError(f"values missing for atoms {missing!r}")
    return RandomElement._of_ordered(space, omega, tuple(values))


def check_ce_characterization(
    x: RandomElement,
    y: RandomElement,
    g: FinitePartition,
    anchor: Point,
    tol: float = EXACT_TOL,
) -> CheckResult:
    """Conditional expectation characterized by block-union replacements.

    For every union A of blocks of ``g``, the element that keeps the values
    on A and is ``anchor`` off A must have the same expectation whether the
    values come from ``x`` or from ``y``; this holds for all A exactly when
    ``y`` is the conditional expectation of ``x`` given ``g``.  Values off A
    are replaced pointwise (``anchor`` must be a convex point).  Each
    expectation is one ``combine`` of the cached convexified values under
    the checked probabilities, as in ``expectation``, with ``anchor``
    convexified once.
    """
    _check_same_base(x, y)
    space = x.space
    omega = x.sample_space
    k_anchor = convexify(space, anchor)
    fold = CheckResult("characterization", tolerance=tol)
    for k in range(len(g.blocks) + 1):
        for chosen in itertools.combinations(g.blocks, k):
            kept = set(omega.positions([a for block in chosen for a in block]))
            ex_on, ey_on = (
                combine(space, WeightedCombination(tuple(
                    [(prob, v if i in kept else k_anchor) for i, (prob, v)
                     in enumerate(zip(omega.probs, z.ordered_convexified))])))
                for z in (x, y)
            )
            fold.record(space.distance(ex_on, ey_on), chosen)
    return fold


def check_ce_properties(
    x: RandomElement,
    g_coarse: FinitePartition,
    g_fine: FinitePartition,
    tol: float | None = None,
) -> AxiomReport:
    """Core identities of conditional expectation on a partition pair.

    Verifies, blockwise within ``tol``: iterated expectation reproduces the
    expectation; measurable elements condition to their convexification;
    conditioning commutes with mixing; and the tower property across
    ``g_coarse`` inside ``g_fine``.
    """
    if not g_fine.refines(g_coarse):
        raise ValueError("g_coarse must be coarser than g_fine")
    space = x.space
    omega = x.sample_space
    report = AxiomReport.for_space(space, tol)

    for g in (g_coarse, g_fine):
        ce = conditional_expectation(x, g)
        gap = space.distance(expectation(ce), x.mean)
        report.check("iterated_expectation").record(gap, g.blocks)

    # a measurable element conditions to its convexified values: each
    # block takes the value at its first atom
    rep_values = [None] * len(omega)
    for block in g_fine.blocks:
        where = omega.positions(block)
        first = x.ordered[where[0]]
        for i in where:
            rep_values[i] = first
    measurable = RandomElement._of_ordered(space, omega, tuple(rep_values))
    ce = conditional_expectation(measurable, g_fine)
    worst = nan_max(map(space.distance, ce.ordered, measurable.ordered_convexified))
    report.check("measurable_to_convexification").record(worst, g_fine.blocks)

    # mixing commutes with conditioning
    y = RandomElement._of_ordered(space, omega, x.ordered[1:] + x.ordered[:1])
    lam = 0.375
    lhs = conditional_expectation(mix_elements(lam, x, y), g_fine)
    rhs = mix_elements(
        lam, conditional_expectation(x, g_fine), conditional_expectation(y, g_fine)
    )
    worst = nan_max(map(space.distance, lhs.ordered, rhs.ordered))
    report.check("mixing").record(worst, lam, g_fine.blocks)

    # tower property in both orders
    inner = conditional_expectation(x, g_coarse)
    towered = conditional_expectation(inner, g_fine)
    other = conditional_expectation(conditional_expectation(x, g_fine), g_coarse)
    worst = nan_max(
        nan_max(space.distance(t, v), space.distance(o, v))
        for t, o, v in zip(towered.ordered, other.ordered, inner.ordered)
    )
    report.check("tower").record(worst, g_coarse.blocks, g_fine.blocks)
    return report


# ---------------------------------------------------------------------------
# martingales


def martingale_sequence(x: RandomElement, filt: Filtration, tol: float = EXACT_TOL) -> list[RandomElement]:
    """(E(X | F_n))_n along the filtration, coarsest first, verified to be a
    martingale.

    The levels are built from the finest back.  As soon as a coarser level
    exists, the guard checks it blockwise against the conditional expectation
    of the next finer level on its partition, and the first violation raises,
    before any coarser level is built.  When the final partition is the
    finest one, the last term equals the convexified values pointwise.
    """
    *coarser, finest = filt.partitions
    seq = [conditional_expectation(x, finest)]
    for g in reversed(coarser):
        term = conditional_expectation(x, g)
        pulled = conditional_expectation(seq[-1], g)
        worst = nan_max(_pair_distances(pulled, term))
        if not worst <= tol:
            raise ValueError(f"martingale property violated by {worst!r}")
        seq.append(term)
    return seq[::-1]


def martingale_convergence_trace(
    x: RandomElement, filt: Filtration, p: int = 1
) -> tuple[list[float], list[float]]:
    """Delta_p distances along (E(X | F_n))_n, built once by
    ``martingale_sequence`` and its guard, as ``(forward, reverse)``.

    ``forward`` keeps the filtration's order, with target K X (the
    convexified values of ``x``, which the finest level must equal);
    ``reverse`` runs from finest back to coarsest, with target the constant
    element E X (``x.mean``, which the coarsest level must equal when F_0 is
    trivial).
    """
    seq = martingale_sequence(x, filt)
    omega = x.sample_space
    limit = RandomElement._of_ordered(x.space, omega, x.ordered_convexified)
    forward = [delta_p(term, limit, p=p) for term in seq]
    mean = RandomElement._of_ordered(x.space, omega, (x.mean,) * len(omega))
    return forward, [delta_p(term, mean, p=p) for term in reversed(seq)]


# ---------------------------------------------------------------------------
# certified convex functionals and Jensen checks


@dataclass(frozen=True)
class DistanceTo:
    """x -> d(anchor, x) for a convex anchor; midpoint convex by the
    negative-curvature axiom."""

    space: SpaceContract
    anchor: Point

    def __call__(self, x: Point) -> float:
        return self.space.distance(self.anchor, x)


@dataclass(frozen=True)
class SupportMax:
    """Max of finitely many support-direction affine functionals plus offsets."""

    functionals: tuple[AffineFunctional, ...]
    offsets: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.offsets):
            raise ValueError(f"offsets must be finite, got {self.offsets!r}")

    @staticmethod
    def of(directions: Sequence[Sequence[float]], offsets: Sequence[float]) -> "SupportMax":
        return SupportMax(
            tuple(AffineFunctional(tuple(d)) for d in directions),
            tuple(float(c) for c in offsets),
        )

    def __call__(self, x) -> float:
        return max(f(x) + c for f, c in zip(self.functionals, self.offsets))


CERTIFIED_FUNCTIONALS = (DistanceTo, SupportMax)


def jensen_check(
    x: RandomElement,
    phi,
    conditional: FinitePartition | None = None,
    tol: float | None = None,
) -> AxiomReport:
    """phi(EX) <= E phi(X), and on a partition also blockwise
    phi(E(X | G)) <= E(phi(X) | G).

    Only the certified midpoint-convex functionals are accepted; arbitrary
    callables are rejected because convexity cannot be verified for them.
    """
    if not isinstance(phi, CERTIFIED_FUNCTIONALS):
        raise TypeError(f"functional {phi!r} is not certified midpoint-convex")
    ce = None if conditional is None else conditional_expectation(x, conditional)
    report = AxiomReport.for_space(x.space, tol)
    phis = [*map(phi, x.ordered)]  # phi is evaluated once per atom
    lhs = phi(x.mean)
    rhs = math.fsum(p * v for p, v in zip(x.sample_space.probs, phis))
    report.check("jensen").record(lhs - rhs, lhs, rhs)
    if conditional is None:
        return report
    for block, first, rhs in _block_means(x.sample_space, conditional, phis.__getitem__):
        lhs = phi(ce.ordered[first])
        report.check("conditional_jensen").record(lhs - rhs, block, lhs, rhs)
    return report


def _block_means(omega: FiniteSampleSpace, g: FinitePartition, at):
    """For each block of ``g`` in turn: the block, the index of its first
    atom, and the conditional mean of ``at(i)`` over the block's atom
    indices ``i``.  A generator, so ``at`` runs block by block."""
    probs = omega.probs
    for block in g.blocks:
        where = omega.positions(block)
        block_prob = math.fsum(probs[i] for i in where)
        yield block, where[0], math.fsum(probs[i] * at(i) for i in where) / block_prob


# ---------------------------------------------------------------------------
# seeded suites (used by the CLI and the acceptance tests)


def sample_sample_space(rng: random.Random, n_atoms: int) -> FiniteSampleSpace:
    probs = _sample_weights(rng, n_atoms)
    return FiniteSampleSpace.of(tuple(f"w{i}" for i in range(n_atoms)), probs)


def sample_random_element(
    space: SpaceContract, omega: FiniteSampleSpace, rng: random.Random
) -> RandomElement:
    return RandomElement._of_ordered(space, omega, tuple(space.sample(rng) for _ in omega.atoms))


def sample_partition(rng: random.Random, omega: FiniteSampleSpace, n_blocks: int) -> FinitePartition:
    atoms = list(omega.atoms)
    rng.shuffle(atoms)
    blocks = [[atoms[i]] for i in range(n_blocks)]
    for a in atoms[n_blocks:]:
        blocks[rng.randrange(n_blocks)].append(a)
    return FinitePartition.of(blocks, omega)


def _draw_elements(space: SpaceContract, rng: random.Random, trial: int) -> SimpleNamespace:
    omega = sample_sample_space(rng, rng.randint(2, 5))
    x = sample_random_element(space, omega, rng)
    y = sample_random_element(space, omega, rng)
    return SimpleNamespace(trial=trial, x=x, y=y, lam=rng.uniform(0.05, 0.95))


EXPECTATION_CHECKS = (
    Check("expectation_contraction", lambda space, c: (
        space.distance(c.x.mean, c.y.mean) - expected_distance(c.x, c.y), c.trial)),
    Check("expectation_mixing", lambda space, c: (space.distance(
        expectation(mix_elements(c.lam, c.x, c.y)),
        combine(space, [(c.lam, c.x.mean), (1.0 - c.lam, c.y.mean)])), c.trial, c.lam)),
)


def expectation_identity_suite(
    space: SpaceContract, trials: int = 1000, tol: float | None = None, seed: int = 0
) -> AxiomReport:
    """Contraction and mixing identities for the expectation operator."""
    return run_trials(space, _draw_elements, EXPECTATION_CHECKS, trials, tol, seed)


def _draw_conditioned(space: SpaceContract, rng: random.Random, trial: int) -> SimpleNamespace:
    omega = sample_sample_space(rng, rng.randint(4, 6))
    g = sample_partition(rng, omega, rng.randint(2, 3))
    x = sample_random_element(space, omega, rng)
    y = sample_random_element(space, omega, rng)
    phi = DistanceTo(space, convexify(space, space.sample(rng)))
    ce_x = conditional_expectation(x, g)
    return SimpleNamespace(trial=trial, g=g, x=x, y=y, phi=phi, ce_x=ce_x, phis=[*map(phi, x.ordered)])


def _conditional_contraction(space, c):
    xs, ys = c.x.ordered, c.y.ordered
    cx, cy = c.ce_x.ordered, conditional_expectation(c.y, c.g).ordered
    worst = nan_max(space.distance(cx[first], cy[first]) - cond_dist for _, first, cond_dist
                    in _block_means(c.x.sample_space, c.g, lambda i: space.distance(xs[i], ys[i])))
    return worst, c.trial, c.g.blocks


CONDITIONAL_CHECKS = (
    Check("conditional_contraction", _conditional_contraction),
    Check("conditional_jensen", lambda space, c: (nan_max(
        c.phi(c.ce_x.ordered[first]) - rhs
        for _, first, rhs in _block_means(c.x.sample_space, c.g, c.phis.__getitem__)), c.trial)),
    Check("jensen", lambda space, c: (c.phi(c.x.mean) - math.fsum(
        p * v for p, v in zip(c.x.sample_space.probs, c.phis)), c.trial)),
)


def conditional_suite(
    space: SpaceContract, trials: int = 1000, tol: float | None = None, seed: int = 0
) -> AxiomReport:
    """Conditional contraction and conditional Jensen with certified functionals."""
    return run_trials(space, _draw_conditioned, CONDITIONAL_CHECKS, trials, tol, seed)
