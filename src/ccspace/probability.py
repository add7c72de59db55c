"""Random elements on finite sample spaces: expectation, conditional
expectation, filtrations, martingales, and Jensen-type inequalities.

Every sample space is finite, so each random element is simple and its
expectation is the probability-weighted combination of the convexified
values, evaluated in exact arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Optional, Sequence

from .axioms import AxiomReport, CheckResult, _fmt, _sample_weights, nan_max
from .core import Point, SpaceContract, combine, convexify, trial_rng
from .embedding import AffineFunctional
from .geometry import ConvexPolytope, FinitePointSet

Label = Hashable

PROB_SUM_TOL = 1e-12


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
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        return FiniteSampleSpace(atoms, probs)

    @staticmethod
    def uniform(n: int, prefix: str = "w") -> "FiniteSampleSpace":
        return FiniteSampleSpace.of(
            tuple(f"{prefix}{i}" for i in range(n)), (1.0 / n,) * n
        )

    @cached_property
    def _position(self) -> dict[Label, int]:
        """atom -> index into ``atoms`` and ``probs``, built once per instance."""
        return {a: i for i, a in enumerate(self.atoms)}

    def prob(self, atom: Label) -> float:
        try:
            return self.probs[self._position[atom]]
        except KeyError:
            raise ValueError(f"{atom!r} is not an atom of the sample space") from None

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class RandomElement:
    """A total map from sample-space atoms into a combination space."""

    space: SpaceContract
    sample_space: FiniteSampleSpace
    values: dict[Label, Point]

    def __post_init__(self):
        missing = [a for a in self.sample_space.atoms if a not in self.values]
        if missing:
            raise ValueError(f"values missing for atoms {missing!r}")

    def value_weight_pairs(self) -> list[tuple[float, Point]]:
        return [
            (p, self.values[a])
            for a, p in zip(self.sample_space.atoms, self.sample_space.probs)
        ]

    def map_values(self, fn: Callable[[Point], Point]) -> "RandomElement":
        return RandomElement(
            self.space, self.sample_space, {a: fn(v) for a, v in self.values.items()}
        )


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
            block = tuple(sorted(block, key=order.__getitem__))
            if not block:
                raise ValueError("partition blocks must be nonempty")
            if seen & set(block):
                raise ValueError("partition blocks must be disjoint")
            seen.update(block)
            norm.append(block)
        if seen != set(omega.atoms):
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
            home = owner.get(block[0])
            if home is None or any(owner.get(a) != home for a in block):
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
    """Trivial partition down to singletons by repeated halving."""
    n = len(omega)
    if n & (n - 1):
        raise ValueError("dyadic filtration needs a power-of-two atom count")
    parts = []
    size = n
    while size >= 1:
        blocks = [omega.atoms[i : i + size] for i in range(0, n, size)]
        parts.append(FinitePartition.of(blocks, omega))
        size //= 2
    return Filtration.of(parts)


@dataclass(frozen=True)
class DenseSequence:
    """Deterministic enumeration u_0, u_1, ... with u_0 a convex point."""

    space: SpaceContract
    point_at: Callable[[int], Point]

    def validate_origin(self, tol: float = 1e-9) -> None:
        u0 = self.point_at(0)
        if self.space.distance(convexify(self.space, u0, tol=tol), u0) > tol:
            raise ValueError("dense sequence must start at a convex point")


def dense_sequence_for(space: SpaceContract) -> DenseSequence:
    if space.dense_point is None:
        raise ValueError(f"space {space.name!r} declares no dense sequence")
    ds = DenseSequence(space, space.dense_point)
    ds.validate_origin()
    return ds


# ---------------------------------------------------------------------------
# expectation and conditional expectation


def expectation(x: RandomElement) -> Point:
    """Probability-weighted combination of the convexified values."""
    space = x.space
    return combine(
        space,
        [(p, convexify(space, v)) for p, v in x.value_weight_pairs()],
    )


def expected_distance(x: RandomElement, y: RandomElement) -> float:
    _check_same_base(x, y)
    return math.fsum(
        p * x.space.distance(x.values[a], y.values[a])
        for a, p in zip(x.sample_space.atoms, x.sample_space.probs)
    )


def delta_p(x: RandomElement, y: RandomElement, p: int = 1) -> float:
    """(E d^p(X, Y))^(1/p) for p in {1, 2}."""
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    _check_same_base(x, y)
    total = math.fsum(
        prob * x.space.distance(x.values[a], y.values[a]) ** p
        for a, prob in zip(x.sample_space.atoms, x.sample_space.probs)
    )
    return total ** (1.0 / p)


def mix_elements(lam: float, x: RandomElement, y: RandomElement) -> RandomElement:
    _check_same_base(x, y)
    return RandomElement(
        x.space,
        x.sample_space,
        {
            a: combine(x.space, [(lam, x.values[a]), (1.0 - lam, y.values[a])])
            for a in x.sample_space.atoms
        },
    )


def _check_same_base(x: RandomElement, y: RandomElement) -> None:
    if x.space is not y.space or x.sample_space != y.sample_space:
        raise ValueError("random elements must share space and sample space")


def psi_n(x: Point, ds: DenseSequence, n: int) -> Point:
    """Nearest of u_0..u_n with ties broken toward the smallest index."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    best = ds.point_at(0)
    best_d = ds.space.distance(best, x)
    for j in range(1, n + 1):
        candidate = ds.point_at(j)
        dist = ds.space.distance(candidate, x)
        if dist < best_d:
            best, best_d = candidate, dist
    return best


def conditional_expectation(x: RandomElement, g: FinitePartition) -> RandomElement:
    """Blockwise probability-weighted combination of convexified values.

    The result is measurable for ``g`` (constant on each block) and takes
    convex-point values.
    """
    space = x.space
    omega = x.sample_space
    values: dict[Label, Point] = {}
    for block in g.blocks:
        probs = [omega.prob(a) for a in block]
        block_prob = math.fsum(probs)
        if block_prob <= 0.0:
            raise ValueError(f"zero-probability block {block!r}")
        mixed = combine(
            space,
            [
                (p / block_prob, convexify(space, x.values[a]))
                for p, a in zip(probs, block)
            ],
        )
        for a in block:
            values[a] = mixed
    return RandomElement(space, omega, values)


@dataclass(frozen=True)
class CharacterizationResult:
    equal: bool
    worst_gap: float
    witness_union: Optional[tuple[tuple[Label, ...], ...]]

    def __bool__(self) -> bool:
        return self.equal


def check_ce_characterization(
    x: RandomElement,
    y: RandomElement,
    g: FinitePartition,
    anchor: Point,
    tol: float = 1e-9,
) -> CharacterizationResult:
    """Conditional expectation characterized by block-union replacements.

    For every union A of blocks of ``g``, the element that keeps the values
    on A and is ``anchor`` off A must have the same expectation whether the
    values come from ``x`` or from ``y``; this holds for all A exactly when
    ``y`` is the conditional expectation of ``x`` given ``g``.  Values off A
    are replaced pointwise (``anchor`` must be a convex point).
    """
    _check_same_base(x, y)
    space = x.space
    fold = CheckResult("characterization", tolerance=tol)
    for k in range(len(g.blocks) + 1):
        for chosen in itertools.combinations(g.blocks, k):
            covered = {a for block in chosen for a in block}

            def clipped(values):
                return RandomElement(
                    space,
                    x.sample_space,
                    {
                        a: values[a] if a in covered else anchor
                        for a in x.sample_space.atoms
                    },
                )

            gap = space.distance(
                expectation(clipped(x.values)), expectation(clipped(y.values))
            )
            fold.record(gap, chosen)
    return CharacterizationResult(fold.passed, fold.worst_violation, fold.witness)


def check_ce_properties(
    x: RandomElement,
    g_coarse: FinitePartition,
    g_fine: FinitePartition,
    tol: float = 1e-9,
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
    report = AxiomReport(space=space.name, seed=0, tolerance=tol)

    for g in (g_coarse, g_fine):
        ce = conditional_expectation(x, g)
        gap = space.distance(expectation(ce), expectation(x))
        report.check("iterated_expectation").record(gap, _fmt(g.blocks))

    # a measurable element conditions to its convexified values
    rep_values = {
        a: x.values[g_fine.block_of(a)[0]] for a in omega.atoms
    }
    measurable = RandomElement(space, omega, rep_values)
    ce = conditional_expectation(measurable, g_fine)
    worst = nan_max(
        space.distance(ce.values[a], convexify(space, measurable.values[a]))
        for a in omega.atoms
    )
    report.check("measurable_to_convexification").record(worst, _fmt(g_fine.blocks))

    # mixing commutes with conditioning
    rotated = {
        a: x.values[omega.atoms[(i + 1) % len(omega)]]
        for i, a in enumerate(omega.atoms)
    }
    y = RandomElement(space, omega, rotated)
    lam = 0.375
    lhs = conditional_expectation(mix_elements(lam, x, y), g_fine)
    rhs = mix_elements(
        lam, conditional_expectation(x, g_fine), conditional_expectation(y, g_fine)
    )
    worst = nan_max(space.distance(lhs.values[a], rhs.values[a]) for a in omega.atoms)
    report.check("mixing").record(worst, _fmt(lam, g_fine.blocks))

    # tower property in both orders
    inner = conditional_expectation(x, g_coarse)
    towered = conditional_expectation(inner, g_fine)
    other = conditional_expectation(conditional_expectation(x, g_fine), g_coarse)
    worst = nan_max(
        nan_max(
            space.distance(towered.values[a], inner.values[a]),
            space.distance(other.values[a], inner.values[a]),
        )
        for a in omega.atoms
    )
    report.check("tower").record(worst, _fmt(g_coarse.blocks, g_fine.blocks))
    return report


# ---------------------------------------------------------------------------
# martingales


def martingale_sequence(x: RandomElement, filt: Filtration, tol: float = 1e-9) -> list[RandomElement]:
    """(E(X | F_n))_n along the filtration, verified to be a martingale.

    The martingale property is rechecked blockwise as a sanity guard; when the
    final partition is the finest one, the last term equals the convexified
    values pointwise.
    """
    seq = [conditional_expectation(x, g) for g in filt.partitions]
    space = x.space
    for earlier_g, earlier, later in zip(filt.partitions, seq, seq[1:]):
        pulled = conditional_expectation(later, earlier_g)
        worst = nan_max(
            space.distance(pulled.values[a], earlier.values[a])
            for a in x.sample_space.atoms
        )
        if not worst <= tol:
            raise ValueError(f"martingale property violated by {worst!r}")
    return seq


def martingale_distances(
    seq: Sequence[RandomElement], p: int = 1, direction: str = "forward"
) -> list[float]:
    """Delta_p distances along (E(X | F_n))_n to the sequence's limit.

    ``seq`` follows the filtration.  ``forward`` keeps its order (target: the
    last, finest term); ``reverse`` runs from finest back to coarsest
    (target: the first term, the expectation when F_0 is trivial).
    """
    if direction not in ("forward", "reverse"):
        raise ValueError("direction must be 'forward' or 'reverse'")
    terms = list(seq) if direction == "forward" else list(reversed(seq))
    return [delta_p(term, terms[-1], p=p) for term in terms]


def martingale_convergence_trace(
    x: RandomElement,
    filt: Filtration,
    p: int = 1,
    direction: str = "forward",
) -> list[float]:
    """Delta_p distances of E(X | F_n) to the limiting conditional expectation;
    see ``martingale_distances``."""
    seq = [conditional_expectation(x, g) for g in filt.partitions]
    return martingale_distances(seq, p=p, direction=direction)


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

    @staticmethod
    def of(directions: Sequence[Sequence[float]], offsets: Sequence[float]) -> "SupportMax":
        return SupportMax(
            tuple(AffineFunctional(tuple(d)) for d in directions),
            tuple(float(c) for c in offsets),
        )

    def __call__(self, x) -> float:
        if isinstance(x, (ConvexPolytope, FinitePointSet)):
            return max(f(x) + c for f, c in zip(self.functionals, self.offsets))
        return max(
            support_function_vector(x, f.direction) + c
            for f, c in zip(self.functionals, self.offsets)
        )


def support_function_vector(x: Sequence[float], v: Sequence[float]) -> float:
    return sum(c * d for c, d in zip(x, v))


CERTIFIED_FUNCTIONALS = (DistanceTo, SupportMax)


def jensen_check(
    x: RandomElement,
    phi,
    conditional: FinitePartition | None = None,
    tol: float = 1e-9,
) -> AxiomReport:
    """phi(EX) <= E phi(X), unconditional or blockwise on a partition.

    Only the certified midpoint-convex functionals are accepted; arbitrary
    callables are rejected because convexity cannot be verified for them.
    """
    if not isinstance(phi, CERTIFIED_FUNCTIONALS):
        raise TypeError(f"functional {phi!r} is not certified midpoint-convex")
    space = x.space
    omega = x.sample_space
    report = AxiomReport(space=space.name, seed=0, tolerance=tol)
    if conditional is None:
        lhs = phi(expectation(x))
        rhs = math.fsum(p * phi(v) for p, v in x.value_weight_pairs())
        report.check("jensen").record(lhs - rhs, _fmt(lhs, rhs))
        return report
    ce = conditional_expectation(x, conditional)
    for block in conditional.blocks:
        block_prob = math.fsum(omega.prob(a) for a in block)
        lhs = phi(ce.values[block[0]])
        rhs = math.fsum(omega.prob(a) * phi(x.values[a]) for a in block) / block_prob
        report.check("conditional_jensen").record(lhs - rhs, _fmt(block, lhs, rhs))
    return report


# ---------------------------------------------------------------------------
# seeded suites (used by the CLI and the acceptance tests)


def sample_sample_space(rng: random.Random, n_atoms: int) -> FiniteSampleSpace:
    probs = _sample_weights(rng, n_atoms)
    return FiniteSampleSpace.of(tuple(f"w{i}" for i in range(n_atoms)), probs)


def sample_random_element(
    space: SpaceContract, omega: FiniteSampleSpace, rng: random.Random
) -> RandomElement:
    return RandomElement(space, omega, {a: space.sample(rng) for a in omega.atoms})


def sample_partition(rng: random.Random, omega: FiniteSampleSpace, n_blocks: int) -> FinitePartition:
    atoms = list(omega.atoms)
    rng.shuffle(atoms)
    blocks = [[atoms[i]] for i in range(n_blocks)]
    for a in atoms[n_blocks:]:
        blocks[rng.randrange(n_blocks)].append(a)
    return FinitePartition.of(blocks, omega)


def expectation_identity_suite(
    space: SpaceContract, trials: int = 1000, tol: float = 1e-9, seed: int = 0
) -> AxiomReport:
    """Contraction and mixing identities for the expectation operator."""
    report = AxiomReport(space=space.name, seed=seed, tolerance=tol)
    for t in range(trials):
        rng = trial_rng(seed, t)
        omega = sample_sample_space(rng, rng.randint(2, 5))
        x = sample_random_element(space, omega, rng)
        y = sample_random_element(space, omega, rng)

        gap = space.distance(expectation(x), expectation(y)) - expected_distance(x, y)
        report.check("expectation_contraction").record(gap, _fmt(t))

        lam = rng.uniform(0.05, 0.95)
        lhs = expectation(mix_elements(lam, x, y))
        rhs = combine(space, [(lam, expectation(x)), (1.0 - lam, expectation(y))])
        report.check("expectation_mixing").record(space.distance(lhs, rhs), _fmt(t, lam))
    return report


def conditional_suite(
    space: SpaceContract, trials: int = 1000, tol: float = 1e-9, seed: int = 0
) -> AxiomReport:
    """Conditional contraction and conditional Jensen with certified functionals."""
    report = AxiomReport(space=space.name, seed=seed, tolerance=tol)
    for t in range(trials):
        rng = trial_rng(seed, t)
        omega = sample_sample_space(rng, rng.randint(4, 6))
        g = sample_partition(rng, omega, rng.randint(2, 3))
        x = sample_random_element(space, omega, rng)
        y = sample_random_element(space, omega, rng)

        ce_x = conditional_expectation(x, g)
        ce_y = conditional_expectation(y, g)
        worst = 0.0
        for block in g.blocks:
            block_prob = math.fsum(omega.prob(a) for a in block)
            cond_dist = (
                math.fsum(
                    omega.prob(a) * space.distance(x.values[a], y.values[a])
                    for a in block
                )
                / block_prob
            )
            gap = space.distance(ce_x.values[block[0]], ce_y.values[block[0]]) - cond_dist
            worst = nan_max(worst, gap)
        report.check("conditional_contraction").record(worst, _fmt(t, g.blocks))

        phi = DistanceTo(space, convexify(space, space.sample(rng)))
        jensen = jensen_check(x, phi, conditional=g, tol=tol)
        report.check("conditional_jensen").record(
            jensen.check("conditional_jensen").worst_violation, _fmt(t)
        )
        jensen_u = jensen_check(x, phi, conditional=None, tol=tol)
        report.check("jensen").record(jensen_u.check("jensen").worst_violation, _fmt(t))
    return report
