"""Executable limit theorems: seeded convergence traces and exact checks.

Almost-sure statements are rendered as deterministic seeded traces plus
exact finite identities where the theory provides one (full-orbit ergodic
averages, fixed points of self-combination, closed-form rates).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .axioms import AxiomReport, _fmt, _sample_weights
from .core import (
    Point,
    SpaceContract,
    combine,
    convexify,
    self_combination,
    trial_rng,
    uniform_mix,
)
from .instances import power_space
from .probability import (
    CERTIFIED_FUNCTIONALS,
    DistanceTo,
    RandomElement,
)


@dataclass(frozen=True)
class ConvergenceTrace:
    """Distances d_n over an index list, with a pass verdict on the tail."""

    indices: tuple[int, ...]
    distances: tuple[float, ...]
    target: str
    tolerance: float
    verdict: bool

    @staticmethod
    def build(
        indices: Sequence[int],
        distances: Sequence[float],
        target: str,
        tolerance: float,
        window: int = 1,
    ) -> "ConvergenceTrace":
        indices = tuple(int(i) for i in indices)
        distances = tuple(float(d) for d in distances)
        if len(indices) != len(distances) or not indices:
            raise ValueError("indices and distances must align and be nonempty")
        if any(d < 0.0 for d in distances):
            raise ValueError("distances must be nonnegative")
        # a NaN distance in the tail fails the verdict
        passed = all(d <= tolerance for d in distances[-window:])
        return ConvergenceTrace(indices, distances, target, tolerance, passed)

    @property
    def final_distance(self) -> float:
        return self.distances[-1]

    def csv_rows(self) -> list[tuple[int, float]]:
        return list(zip(self.indices, self.distances))

    def to_json_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "distances": [repr(d) for d in self.distances],
            "target": self.target,
            "tolerance": self.tolerance,
            "final_distance": repr(self.final_distance),
            "verdict": "pass" if self.verdict else "fail",
        }


@dataclass(frozen=True)
class CyclicTransformation:
    """omega -> omega + step (mod modulus) on a uniform atom space.

    The step must be coprime with the modulus, which makes the rotation
    ergodic: the orbit of any atom visits every atom exactly once per period.
    """

    modulus: int
    step: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if math.gcd(self.step, self.modulus) != 1:
            raise ValueError(
                f"step {self.step} is not coprime with modulus {self.modulus}; "
                "the invariant algebra would be nontrivial"
            )

    def orbit(self, start: int) -> list[int]:
        return [(start + i * self.step) % self.modulus for i in range(self.modulus)]


class CounterexampleResult(NamedTuple):
    lhs: float
    rhs: float
    verdict: str


def slln_run(
    space: SpaceContract,
    law: Sequence[tuple[float, Point]],
    n_max: int,
    seed: int = 0,
    mode: str = "convex_track",
    tolerance: float = 0.05,
    record_every: int | None = None,
) -> ConvergenceTrace:
    """Distance of the running equal-weight combination to the expectation.

    Draws X_1, X_2, ... iid from ``law`` and updates the running combination
    incrementally as [n/(n+1), S_n ; 1/(n+1), X_{n+1}].  ``convex_track``
    replaces each draw by its convexification (exact and fast, with the same
    limit); ``raw_track`` keeps raw draws and is bounded by the instance's
    enumeration cap.
    """
    if mode not in ("convex_track", "raw_track"):
        raise ValueError("mode must be 'convex_track' or 'raw_track'")
    probs = [p for p, _ in law]
    points = [v for _, v in law]
    target = combine(space, [(p, convexify(space, v)) for p, v in law])
    rng = random.Random(seed)
    if record_every is None:
        record_every = max(1, n_max // 1000)

    def draw() -> Point:
        value = rng.choices(points, weights=probs, k=1)[0]
        return convexify(space, value) if mode == "convex_track" else value

    running = draw()
    indices = []
    distances = []
    for n in range(1, n_max + 1):
        if n > 1:
            running = combine(
                space, [((n - 1) / n, running), (1.0 / n, draw())]
            )
        if n % record_every == 0 or n == n_max:
            indices.append(n)
            distances.append(space.distance(running, target))
    return ConvergenceTrace.build(indices, distances, "expectation of the law", tolerance)


def ergodic_run(
    tau: CyclicTransformation,
    x: RandomElement,
    n_max: int,
    start: int = 0,
    tolerance: float = 1e-12,
) -> ConvergenceTrace:
    """Orbit averages [n^-1, X(tau^i w)] against the expectation.

    Requires a uniform sample space matching the rotation's modulus.  Each
    average is evaluated as one equal-weight combination, so for convex-valued
    X the distance at n = modulus vanishes exactly: the full orbit visits
    every atom once and the average is the expectation itself.
    """
    omega = x.sample_space
    n = tau.modulus
    if len(omega) != n:
        raise ValueError("sample space size must equal the rotation modulus")
    if any(abs(p - 1.0 / n) > 1e-12 for p in omega.probs):
        raise ValueError("ergodic averages need the uniform measure")
    from .probability import expectation

    target = expectation(x)
    orbit_values = [
        x.values[omega.atoms[i]] for i in tau.orbit(start % n)
    ]
    indices = []
    distances = []
    for length in range(1, n_max + 1):
        reps = [orbit_values[i % n] for i in range(length)]
        avg = uniform_mix(x.space, reps)
        indices.append(length)
        distances.append(x.space.distance(avg, target))
    return ConvergenceTrace.build(indices, distances, "expectation", tolerance)


def convexification_rate(
    space: SpaceContract,
    x: Point,
    n_list: Sequence[int],
    tolerance: float = 1e-9,
) -> ConvergenceTrace:
    """d([n^-1, x]^n, Kx) over an increasing list of n."""
    if list(n_list) != sorted(set(int(n) for n in n_list)) or not n_list:
        raise ValueError("n_list must be increasing and nonempty")
    kx = convexify(space, x)
    distances = [
        space.distance(self_combination(space, x, n), kx) for n in n_list
    ]
    return ConvergenceTrace.build(n_list, distances, "convexification of x", tolerance)


def raw_vs_convex_average_run(
    space: SpaceContract,
    family: Sequence[Point],
    n_max: int,
    tolerance: float = 0.5,
) -> ConvergenceTrace:
    """Distance between raw and convexified equal-weight running averages.

    The sequence cycles through the declared finite family (the desk-scale
    stand-in for a compact family); the raw side is bounded by the instance's
    enumeration cap.
    """
    if not family:
        raise ValueError("family must be nonempty")
    indices = []
    distances = []
    for n in range(1, n_max + 1):
        seq = [family[i % len(family)] for i in range(n)]
        raw = uniform_mix(space, seq)
        cooked = uniform_mix(space, [convexify(space, p) for p in seq])
        indices.append(n)
        distances.append(space.distance(raw, cooked))
    return ConvergenceTrace.build(
        indices, distances, "convexified running average", tolerance
    )


def _weight_perturbation_gap(space: SpaceContract, a_weights, b_weights, xs, u) -> float:
    """d([a_i, Kx_i], [b_i, Kx_i]) - sum |a_i - b_i| d(x_i, u); the bound holds at <= 0."""
    kxs = [convexify(space, x) for x in xs]
    lhs = space.distance(
        combine(space, list(zip(a_weights, kxs))),
        combine(space, list(zip(b_weights, kxs))),
    )
    rhs = math.fsum(
        abs(a - b) * space.distance(x, u) for a, b, x in zip(a_weights, b_weights, xs)
    )
    return lhs - rhs


def weight_perturbation_check(
    space: SpaceContract,
    a_weights: Sequence[float],
    b_weights: Sequence[float],
    xs: Sequence[Point],
    u: Point,
    tol: float = 1e-9,
) -> bool:
    """d([a_i, Kx_i], [b_i, Kx_i]) <= sum |a_i - b_i| d(x_i, u), within tol."""
    if not (len(a_weights) == len(b_weights) == len(xs)):
        raise ValueError("weights and points must align")
    for ws in (a_weights, b_weights):
        if any(w < 0.0 or w > 1.0 for w in ws):
            raise ValueError("weights must lie in [0, 1]")
        if abs(math.fsum(ws) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
    return _weight_perturbation_gap(space, a_weights, b_weights, xs, u) <= tol


def scaling_counterexample(scale: float = 1.0) -> CounterexampleResult:
    """The weight-perturbation bound fails without convexification.

    In the squared-weight combination space on R, with x = scale and
    y = -scale/2, the two combinations with weights (4/5, 1/5) and (2/5, 3/5)
    sit 16 |x| / 25 apart while the bound with u = 0 is only 3 |x| / 5, so
    the raw-point inequality fails.
    """
    space = power_space(r=2.0, dim=1)
    x = (float(scale),)
    y = (-float(scale) / 2.0,)
    u = (0.0,)
    lhs = space.distance(
        combine(space, [(0.8, x), (0.2, y)]),
        combine(space, [(0.4, x), (0.6, y)]),
    )
    rhs = abs(0.8 - 0.4) * space.distance(x, u) + abs(0.2 - 0.6) * space.distance(y, u)
    return CounterexampleResult(lhs, rhs, "fails" if lhs > rhs else "holds")


def _rational_jensen_gaps(space: SpaceContract, phi, qs, xs, denom: int) -> tuple[float, float]:
    """phi([q_i, x_i]) - sum q_i phi(x_i), and the replication gap; both hold at <= 0.

    The replication gap is the distance from [q_i, x_i] to the equal-weight
    combination of each x_i repeated q_i * denom times; it is 0.0, unchecked,
    when denom exceeds 64.
    """
    mixed = combine(space, [(float(q), x) for q, x in zip(qs, xs)])
    jensen_gap = phi(mixed) - math.fsum(float(q) * phi(x) for q, x in zip(qs, xs))
    if denom > 64:
        return jensen_gap, 0.0
    replicated = [x for q, x in zip(qs, xs) for _ in range(q.numerator * (denom // q.denominator))]
    return jensen_gap, space.distance(mixed, uniform_mix(space, replicated))


def rational_jensen_check(
    space: SpaceContract,
    phi,
    q_weights: Sequence[Fraction],
    xs: Sequence[Point],
    tol: float = 1e-9,
) -> bool:
    """phi([q_i, x_i]) <= sum q_i phi(x_i) for rational weights on convex points.

    Also exercises the replication identity behind it: with q_i = k_i / m the
    weighted combination equals the equal-weight combination of each x_i
    repeated k_i times; the check fails if that identity drifts beyond tol.
    """
    if not isinstance(phi, CERTIFIED_FUNCTIONALS):
        raise TypeError(f"functional {phi!r} is not certified midpoint-convex")
    qs = [Fraction(q) for q in q_weights]
    if sum(qs) != 1:
        raise ValueError("rational weights must sum to exactly 1")
    if any(q <= 0 for q in qs):
        raise ValueError("rational weights must be positive")
    if len(qs) != len(xs):
        raise ValueError("weights and points must align")
    denom = math.lcm(*(q.denominator for q in qs))
    return all(gap <= tol for gap in _rational_jensen_gaps(space, phi, qs, xs, denom))


# ---------------------------------------------------------------------------
# seeded suites


def weight_perturbation_suite(
    space: SpaceContract, trials: int = 1000, tol: float = 1e-9, seed: int = 0
) -> AxiomReport:
    report = AxiomReport(space=space.name, seed=seed, tolerance=tol)
    for t in range(trials):
        rng = trial_rng(seed, t)
        k = rng.randint(2, 4)
        a = _sample_weights(rng, k)
        b = _sample_weights(rng, k)
        if rng.random() < 0.1 and k >= 3:
            # exercise a zero entry: shift all mass of one coordinate
            b[1] += b[0]
            b[0] = 0.0
        xs = [space.sample(rng) for _ in range(k)]
        u = space.sample(rng)
        gap = _weight_perturbation_gap(space, a, b, xs, u)
        report.check("weight_perturbation").record(gap, _fmt(t, a, b))
    return report


def rational_jensen_suite(
    space: SpaceContract, trials: int = 1000, tol: float = 1e-9, seed: int = 0
) -> AxiomReport:
    report = AxiomReport(space=space.name, seed=seed, tolerance=tol)
    for t in range(trials):
        rng = trial_rng(seed, t)
        k = rng.randint(2, 3)
        m = rng.choice((6, 12, 24))
        cuts = sorted(rng.sample(range(1, m), k - 1))
        counts = [b - a for a, b in zip([0] + cuts, cuts + [m])]
        qs = [Fraction(c, m) for c in counts]
        xs = [convexify(space, space.sample(rng)) for _ in range(k)]
        phi = DistanceTo(space, convexify(space, space.sample(rng)))
        jensen_gap, replication_gap = _rational_jensen_gaps(space, phi, qs, xs, m)
        report.check("rational_jensen").record(jensen_gap, _fmt(t, qs))
        report.check("replication_identity").record(replication_gap, _fmt(t, qs))
    return report
