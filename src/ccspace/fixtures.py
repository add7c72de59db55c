"""Named fixtures and the text fixture-file format used by the CLI.

A fixture file holds one atom per line, ``label ; probability ; value``,
with the value written in the space's point serialization (see
``instances.parse_point``).  Blank lines and ``#`` comments are skipped.
"""

from __future__ import annotations

from typing import Sequence

from .core import SpaceContract
from .distributions import DiscreteDistribution
from .geometry import ConvexPolytope, FinitePointSet
from .instances import parse_point
from .probability import FiniteSampleSpace, RandomElement

MARTINGALE_ATOMS = 16  # a power of two, as the dyadic filtration needs


def _require_dim(points, dim: int) -> None:
    """Reject fixture values whose dimension is not the space's ``dim``.

    Vectors and sets have a dimension; laws on R have none and always pass.
    """
    for point in points:
        found = len(point) if isinstance(point, tuple) else getattr(point, "dim", None)
        if found is not None and found != dim:
            raise ValueError(
                f"fixture values are {found}-dimensional but the space is "
                f"{dim}-dimensional (see --dim)"
            )


def slln_law(space_name: str, name: str, dim: int = 1):
    """Law fixtures for the strong-law runs: list of (prob, point)."""
    if space_name in ("euclidean", "power") and name == "bernoulli":
        law = [(0.5, (0.0,)), (0.5, (1.0,))]
    elif space_name == "compact-sets" and name == "interval-pair":
        law = [
            (0.5, ConvexPolytope.interval(0.0, 1.0)),
            (0.5, ConvexPolytope.interval(2.0, 2.0)),
        ]
    elif space_name == "compact-sets" and name == "two-point-set":
        law = [
            (0.5, FinitePointSet.of([(0.0,), (1.0,)])),
            (0.5, FinitePointSet.of([(2.0,)])),
        ]
    elif space_name == "distributions" and name == "bernoulli":
        law = [
            (0.5, DiscreteDistribution.delta(0.0)),
            (0.5, DiscreteDistribution.of([0.0, 1.0], [0.5, 0.5])),
        ]
    else:
        raise ValueError(f"no slln fixture {name!r} for space {space_name!r}")
    _require_dim((point for _, point in law), dim)
    return law


def convexify_point(space_name: str, name: str, dim: int = 1):
    """Point fixtures for convexification-rate traces."""
    if name == "two-point":
        if space_name != "compact-sets":
            raise ValueError("fixture 'two-point' lives in compact-sets")
        if dim == 1:
            return FinitePointSet.of([(0.0,), (1.0,)])
        return FinitePointSet.of([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    if name == "unit":
        if space_name == "power":
            return (1.0,) * dim
        if space_name == "euclidean":
            return (1.0,) * dim
        if space_name == "distributions":
            return DiscreteDistribution.of([0.0, 1.0], [0.5, 0.5])
    raise ValueError(f"no convexify fixture {name!r} for space {space_name!r}")


def martingale_element(space: SpaceContract, space_name: str, dim: int = 1) -> RandomElement:
    """Ramp-valued element on a uniform dyadic sample space."""
    omega = FiniteSampleSpace.uniform(MARTINGALE_ATOMS)
    if space_name in ("euclidean", "power"):
        values = {a: (float(i + 1),) for i, a in enumerate(omega.atoms)}
    elif space_name == "compact-sets":
        values = {
            a: FinitePointSet.of([(0.0,), (float(i + 1),)])
            for i, a in enumerate(omega.atoms)
        }
    elif space_name == "distributions":
        values = {
            a: DiscreteDistribution.of([0.0, float(i + 1)], [0.5, 0.5])
            for i, a in enumerate(omega.atoms)
        }
    else:
        raise ValueError(f"unknown space {space_name!r}")
    _require_dim(values.values(), dim)
    return RandomElement(space, omega, values)


def ergodic_element(
    space: SpaceContract, space_name: str, modulus: int, dim: int = 1
) -> RandomElement:
    """Convex-valued element on the uniform rotation space."""
    omega = FiniteSampleSpace.uniform(modulus)
    if space_name in ("euclidean", "power"):
        values = {a: (float(i),) for i, a in enumerate(omega.atoms)}
    elif space_name == "compact-sets":
        values = {
            a: ConvexPolytope.interval(0.0, 1.0 + (i % 7))
            for i, a in enumerate(omega.atoms)
        }
    elif space_name == "distributions":
        values = {
            a: DiscreteDistribution.delta(float(i % 11))
            for i, a in enumerate(omega.atoms)
        }
    else:
        raise ValueError(f"unknown space {space_name!r}")
    _require_dim(values.values(), dim)
    return RandomElement(space, omega, values)


def family_points(space_name: str, name: str, dim: int = 1) -> Sequence:
    """Finite families for raw-versus-convexified average traces."""
    if space_name == "compact-sets" and name == "two-point-family":
        family = [
            FinitePointSet.of([(0.0,), (1.0,)]),
            FinitePointSet.of([(2.0,)]),
        ]
    elif space_name in ("euclidean", "power") and name == "unit":
        family = [(1.0,), (-0.5,)]
    else:
        raise ValueError(f"no family fixture {name!r} for space {space_name!r}")
    _require_dim(family, dim)
    return family


def parse_fixture_lines(
    space: SpaceContract, space_name: str, lines, dim: int = 1
) -> RandomElement:
    """Fixture-file lines as a random element; ``dim`` is the space's dimension."""
    atoms = []
    probs = []
    values = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(";")
        if len(parts) != 3:
            raise ValueError(f"fixture line needs 'label ; prob ; value', got {raw!r}")
        label, prob, value = parts
        atoms.append(label.strip())
        probs.append(float(prob.strip()))
        values[atoms[-1]] = parse_point(space_name, value)  # parse_point strips the value
    _require_dim(values.values(), dim)
    omega = FiniteSampleSpace.of(atoms, probs)
    return RandomElement(space, omega, values)


def load_fixture_file(
    space: SpaceContract, space_name: str, path: str, dim: int = 1
) -> RandomElement:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_fixture_lines(space, space_name, handle, dim)
