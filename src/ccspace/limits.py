"""Executable limit theorems: seeded convergence traces and exact checks.

Almost-sure statements are rendered as deterministic seeded traces plus
exact finite identities where the theory provides one (full-orbit ergodic
averages, fixed points of self-combination, closed-form rates).  The four
averaging traces (``slln_run``, ``ergodic_run``, ``convexification_rate`` and
``raw_vs_convex_average_run``) share one running-mean loop, which advances
each mean by one binary combination and checks it against its direct
evaluation at ``DIRECT_CHECK_LENGTHS``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Container, Iterable, Iterator, NamedTuple, Optional, Sequence

from .axioms import AxiomReport, Check, _sample_weights, nan_max, run_trials
from .core import (
    EXACT_TOL,
    WEIGHT_SUM_TOL,
    Point,
    SpaceContract,
    WeightedCombination,
    combine,
    convexify,
    uniform_mix,
)
from .instances import power_space
from .probability import (
    CERTIFIED_FUNCTIONALS,
    DistanceTo,
    RandomElement,
    expectation,
)

# Default tail tolerances of the seeded traces (shared with the CLI).
SLLN_TOL = 0.05
ERGODIC_TOL = 1e-12
RAW_VS_CONVEX_TOL = 0.5
# The CLI's defaults for the traces whose library functions default to
# ``EXACT_TOL`` or take no tolerance.
MARTINGALE_TOL = 1e-12
CONVEXIFY_RATE_TOL = 1.0

# Trace lengths at which a running equal-weight combination is compared with
# the same combination evaluated directly from all of its terms.
DIRECT_CHECK_LENGTHS = frozenset(2 ** k for k in range(7))
_KEPT_TERMS = max(DIRECT_CHECK_LENGTHS)


@dataclass(frozen=True)
class ConvergenceTrace:
    """Distances d_n over an index list, with a pass verdict on the last one.

    The verdict passes when the last distance is within ``tolerance`` and
    every distance in the trace is finite; the martingale command judges its
    reverse trace by the same rule.  The four averaging traces come from one
    running-mean loop and carry ``direct_check_gap``, the worst distance
    between a running mean and its direct evaluation; beyond ``EXACT_TOL`` it
    fails the verdict.
    """

    indices: tuple[int, ...]
    distances: tuple[float, ...]
    target: str
    tolerance: float
    verdict: bool
    direct_check_gap: Optional[float] = None

    @staticmethod
    def build(
        indices: Sequence[int],
        distances: Sequence[float],
        target: str,
        tolerance: float,
        direct_check_gap: Optional[float] = None,
    ) -> "ConvergenceTrace":
        indices = tuple(int(i) for i in indices)
        distances = tuple(float(d) for d in distances)
        if len(indices) != len(distances) or not indices:
            raise ValueError("indices and distances must align and be nonempty")
        if any(d < 0.0 for d in distances):
            raise ValueError("distances must be nonnegative")
        # a NaN or infinite distance anywhere, or a NaN gap, fails the verdict
        passed = distances[-1] <= tolerance and all(map(math.isfinite, distances))
        if direct_check_gap is not None:
            direct_check_gap = float(direct_check_gap)
            passed = passed and direct_check_gap <= EXACT_TOL
        return ConvergenceTrace(indices, distances, target, tolerance, passed, direct_check_gap)

    @property
    def final_distance(self) -> float:
        return self.distances[-1]

    def csv_rows(self) -> list[tuple[int, float]]:
        return list(zip(self.indices, self.distances))

    def to_json_dict(self) -> dict:
        out = {
            "indices": list(self.indices),
            "distances": [repr(d) for d in self.distances],
            "target": self.target,
            "tolerance": self.tolerance,
            "final_distance": repr(self.final_distance),
            "verdict": "pass" if self.verdict else "fail",
        }
        if self.direct_check_gap is not None:
            out["direct_check_gap"] = repr(self.direct_check_gap)
        return out


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


def _running_means(
    space: SpaceContract,
    terms: Iterable[Point],
    gaps: list[float],
    resets: Container[int] = (),
    reset_to: Optional[Point] = None,
) -> Iterator[Point]:
    """Yield [n^-1, x_1 .. x_n] for each prefix x_1 .. x_n of ``terms``.

    Each mean is advanced from the previous one by one binary combination,
    by associativity: [n^-1, x]^n = [(n-1)/n, [(n-1)^-1, x]^(n-1) ; 1/n, x_n].
    Its weights are positive and sum to 1 within ``WEIGHT_SUM_TOL`` for
    every n >= 2, so they are passed as checked terms.
    At a length in ``resets`` the mean is ``reset_to`` instead.  The first
    64 terms are kept: at ``DIRECT_CHECK_LENGTHS`` the mean is also evaluated
    directly with ``uniform_mix``, and the distance between the two is
    appended to ``gaps``.
    """
    kept = []
    for n, x in enumerate(terms, 1):
        if n <= _KEPT_TERMS:
            kept.append(x)
        if n in resets:
            running = reset_to
        elif n == 1:
            running = x
        else:
            running = combine(space, WeightedCombination((((n - 1) / n, running), (1.0 / n, x))))
        if n in DIRECT_CHECK_LENGTHS:
            gaps.append(space.distance(uniform_mix(space, kept), running))
        yield running


def slln_run(
    space: SpaceContract,
    law: Sequence[tuple[float, Point]],
    n_max: int,
    seed: int = 0,
    mode: str = "convex_track",
    tolerance: float = SLLN_TOL,
) -> ConvergenceTrace:
    """Distance of the running equal-weight combination to the expectation.

    Draws X_1, X_2, ... iid from ``law`` and updates the running combination
    incrementally as [n/(n+1), S_n ; 1/(n+1), X_{n+1}].  ``convex_track``
    replaces each draw by its convexification (exact and fast, with the same
    limit); ``raw_track`` keeps raw draws and is bounded by the instance's
    enumeration cap.  At powers of two up to 64 the running combination is
    also evaluated directly, and the worst gap is the trace's
    ``direct_check_gap``.
    """
    if mode not in ("convex_track", "raw_track"):
        raise ValueError("mode must be 'convex_track' or 'raw_track'")
    probs = [p for p, _ in law]
    points = [v for _, v in law]
    target = combine(space, [(p, convexify(space, v)) for p, v in law])
    rng = random.Random(seed)
    record_every = max(1, n_max // 1000)

    draws = (rng.choices(points, weights=probs, k=1)[0] for _ in range(n_max))
    if mode == "convex_track":
        draws = (convexify(space, value) for value in draws)
    indices = []
    distances = []
    gaps = []
    for n, running in enumerate(_running_means(space, draws, gaps), 1):
        if n % record_every == 0 or n == n_max:
            indices.append(n)
            distances.append(space.distance(running, target))
    return ConvergenceTrace.build(
        indices, distances, "expectation of the law", tolerance,
        direct_check_gap=nan_max(gaps, default=math.nan),
    )


def ergodic_run(
    tau: CyclicTransformation,
    x: RandomElement,
    n_max: int,
    start: int = 0,
    tolerance: float = ERGODIC_TOL,
) -> ConvergenceTrace:
    """Orbit averages [n^-1, X(tau^i w)] against the expectation.

    Requires a uniform sample space matching the rotation's modulus.  Each
    average is advanced from the previous one by a single binary combination.
    At every full period it is set to the one-period average A, evaluated
    once as an equal-weight combination over the orbit: at length = modulus
    that is the average itself, and at k periods it is [1/k, A]^k, which is A
    when A is convex.  So for convex-valued X the distance vanishes exactly at
    every full period: the orbit visits every atom once and A is the
    expectation itself.  At powers of two up to 64 each average is also
    evaluated directly, and the worst gap is the trace's ``direct_check_gap``.
    """
    omega = x.sample_space
    n = tau.modulus
    if len(omega) != n:
        raise ValueError("sample space size must equal the rotation modulus")
    if any(abs(p - 1.0 / n) > 1e-12 for p in omega.probs):
        raise ValueError("ergodic averages need the uniform measure")
    space = x.space
    target = expectation(x)
    orbit_values = [x.ordered[i] for i in tau.orbit(start % n)]
    period_average = uniform_mix(space, orbit_values)
    period_is_convex = space.distance(convexify(space, period_average), period_average) == 0.0
    periods = range(n, n_max + 1, n) if period_is_convex else (n,)
    gaps = []
    orbit = itertools.islice(itertools.cycle(orbit_values), n_max)
    means = _running_means(space, orbit, gaps, periods, period_average)
    distances = [space.distance(mean, target) for mean in means]
    return ConvergenceTrace.build(
        range(1, n_max + 1), distances, "expectation", tolerance,
        direct_check_gap=nan_max(gaps, default=math.nan),
    )


def convexification_rate(
    space: SpaceContract,
    x: Point,
    n_list: Sequence[int],
    tolerance: float = EXACT_TOL,
) -> ConvergenceTrace:
    """d([n^-1, x]^n, Kx) over an increasing list of positive n.

    [n^-1, x]^n is advanced from [(n-1)^-1, x]^(n-1) by a single binary
    combination for every n up to the last of ``n_list``.  At powers of two
    up to 64 it is also evaluated directly, and the worst gap is the trace's
    ``direct_check_gap``.
    """
    if not n_list or list(n_list) != sorted(set(int(n) for n in n_list)) or n_list[0] < 1:
        raise ValueError("n_list must be increasing, positive and nonempty")
    kx = convexify(space, x)
    recorded = set(n_list)
    gaps = []
    means = _running_means(space, itertools.repeat(x, n_list[-1]), gaps)
    distances = [space.distance(mean, kx) for n, mean in enumerate(means, 1) if n in recorded]
    return ConvergenceTrace.build(
        n_list, distances, "convexification of x", tolerance,
        direct_check_gap=nan_max(gaps, default=math.nan),
    )


def raw_vs_convex_average_run(
    space: SpaceContract,
    family: Sequence[Point],
    n_max: int,
    tolerance: float = RAW_VS_CONVEX_TOL,
) -> ConvergenceTrace:
    """Distance between raw and convexified equal-weight running averages.

    The sequence cycles through the declared finite family (the desk-scale
    stand-in for a compact family); the raw side is bounded by the instance's
    enumeration cap.  Each family member is convexified once, and both
    averages are advanced by a single binary combination per step.  At powers
    of two up to 64 both are also evaluated directly, and the worst gap is
    the trace's ``direct_check_gap``.
    """
    if not family:
        raise ValueError("family must be nonempty")
    cooked_family = [convexify(space, p) for p in family]
    gaps = []
    raw, cooked = (
        _running_means(space, itertools.islice(itertools.cycle(f), n_max), gaps)
        for f in (family, cooked_family)
    )
    distances = [space.distance(r, c) for r, c in zip(raw, cooked)]
    return ConvergenceTrace.build(
        range(1, n_max + 1), distances, "convexified running average", tolerance,
        direct_check_gap=nan_max(gaps, default=math.nan),
    )


def _weight_perturbation(space: SpaceContract, c) -> tuple:
    """d([a_i, Kx_i], [b_i, Kx_i]) - sum |a_i - b_i| d(x_i, u); the bound holds at <= 0."""
    kxs = [convexify(space, x) for x in c.xs]
    lhs = space.distance(combine(space, list(zip(c.a, kxs))), combine(space, list(zip(c.b, kxs))))
    rhs = math.fsum(abs(a - b) * space.distance(x, c.u) for a, b, x in zip(c.a, c.b, c.xs))
    return lhs - rhs, c.trial, c.a, c.b


def weight_perturbation_check(
    space: SpaceContract,
    a_weights: Sequence[float],
    b_weights: Sequence[float],
    xs: Sequence[Point],
    u: Point,
    tol: float = EXACT_TOL,
) -> bool:
    """d([a_i, Kx_i], [b_i, Kx_i]) <= sum |a_i - b_i| d(x_i, u), within tol."""
    if not (len(a_weights) == len(b_weights) == len(xs)):
        raise ValueError("weights and points must align")
    for ws in (a_weights, b_weights):
        if any(w < 0.0 or w > 1.0 for w in ws):
            raise ValueError("weights must lie in [0, 1]")
        if abs(math.fsum(ws) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1")
    case = SimpleNamespace(trial=None, a=a_weights, b=b_weights, xs=xs, u=u)
    return _weight_perturbation(space, case)[0] <= tol


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


def rational_jensen_check(
    space: SpaceContract,
    phi,
    q_weights: Sequence[Fraction],
    xs: Sequence[Point],
    tol: float = EXACT_TOL,
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
    case = _rational_case(space, phi, qs, xs, math.lcm(*(q.denominator for q in qs)))
    return all(check.measure(space, case)[0] <= tol for check in RATIONAL_JENSEN_CHECKS)


# ---------------------------------------------------------------------------
# seeded suites


def _draw_perturbation(space: SpaceContract, rng: random.Random, trial: int) -> SimpleNamespace:
    k = rng.randint(2, 4)
    c = SimpleNamespace(trial=trial, a=_sample_weights(rng, k), b=_sample_weights(rng, k))
    if rng.random() < 0.1 and k >= 3:
        # exercise a zero entry: shift all mass of one coordinate
        c.b[1] += c.b[0]
        c.b[0] = 0.0
    c.xs = [space.sample(rng) for _ in range(k)]
    c.u = space.sample(rng)
    return c


WEIGHT_PERTURBATION_CHECKS = (Check("weight_perturbation", _weight_perturbation),)


def weight_perturbation_suite(
    space: SpaceContract, trials: int = 1000, tol: float | None = None, seed: int = 0
) -> AxiomReport:
    return run_trials(space, _draw_perturbation, WEIGHT_PERTURBATION_CHECKS, trials, tol, seed)


def _rational_case(space: SpaceContract, phi, qs, xs, m: int, trial: int | None = None):
    """A case of the rational Jensen checks, with [q_i, x_i] combined once."""
    mixed = combine(space, [(float(q), x) for q, x in zip(qs, xs)])
    return SimpleNamespace(trial=trial, phi=phi, qs=qs, xs=xs, m=m, mixed=mixed)


def _draw_rational(space: SpaceContract, rng: random.Random, trial: int) -> SimpleNamespace:
    k = rng.randint(2, 3)
    m = rng.choice((6, 12, 24))
    cuts = sorted(rng.sample(range(1, m), k - 1))
    qs = [Fraction(b - a, m) for a, b in zip([0] + cuts, cuts + [m])]
    xs = [convexify(space, space.sample(rng)) for _ in range(k)]
    phi = DistanceTo(space, convexify(space, space.sample(rng)))
    return _rational_case(space, phi, qs, xs, m, trial)


def _replication_identity(space, c):
    # the distance from [q_i, x_i] to the equal-weight combination of each x_i
    # repeated q_i * m times; 0.0, unchecked, when m exceeds 64
    if c.m > 64:
        return 0.0, c.trial, c.qs
    replicated = [x for q, x in zip(c.qs, c.xs) for _ in range(q.numerator * (c.m // q.denominator))]
    return space.distance(c.mixed, uniform_mix(space, replicated)), c.trial, c.qs


RATIONAL_JENSEN_CHECKS = (
    # phi([q_i, x_i]) - sum q_i phi(x_i); the inequality holds at <= 0
    Check("rational_jensen", lambda space, c: (
        c.phi(c.mixed) - math.fsum(float(q) * c.phi(x) for q, x in zip(c.qs, c.xs)), c.trial, c.qs)),
    Check("replication_identity", _replication_identity),
)


def rational_jensen_suite(
    space: SpaceContract, trials: int = 1000, tol: float | None = None, seed: int = 0
) -> AxiomReport:
    return run_trials(space, _draw_rational, RATIONAL_JENSEN_CHECKS, trials, tol, seed)
