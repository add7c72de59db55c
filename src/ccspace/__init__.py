"""Convex combination spaces: metric spaces with an n-ary convex combination.

The package verifies the combination axioms and the expectation, conditional
expectation, and limit theorems they support, numerically and at desk scale,
on four concrete instances: Euclidean space, power-weighted combinations,
compact sets under Minkowski averaging, and discrete laws under scaled
convolution.
"""

from .axioms import AxiomReport, CheckResult, check_axioms, check_cancellation
from .core import (
    CombinationError,
    SpaceContract,
    WeightedCombination,
    combine,
    convexify,
    midpoint,
    self_combination,
    uniform_mix,
)
from .distributions import (
    DiscreteDistribution,
    quantile_resample,
    scaled_convolution_combine,
    wasserstein1,
)
from .embedding import (
    AffineFunctional,
    SupportVector,
    embed,
    embedded_distance,
    embedding_suite,
    support_function,
)
from .geometry import (
    ConvexPolytope,
    EnumerationCapError,
    FinitePointSet,
    convex_hull,
    hausdorff_distance,
    minkowski_combine,
    polytope_combine,
)
from .instances import (
    compact_sets_space,
    distribution_space,
    euclidean_space,
    get_space,
    power_space,
)
from .limits import (
    ConvergenceTrace,
    CyclicTransformation,
    convexification_rate,
    ergodic_run,
    rational_jensen_check,
    raw_vs_convex_average_run,
    scaling_counterexample,
    slln_run,
    weight_perturbation_check,
)
from .probability import (
    DistanceTo,
    Filtration,
    FinitePartition,
    FiniteSampleSpace,
    RandomElement,
    SupportMax,
    check_ce_characterization,
    check_ce_properties,
    conditional_expectation,
    delta_p,
    dyadic_filtration,
    expectation,
    jensen_check,
    martingale_convergence_trace,
    martingale_sequence,
    mix_elements,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
