"""Per-layer tracing from outside the program.

``instrument`` rebinds the public functions of each ccspace module, in every
ccspace module that imported them, to wrappers that time the call and count
its work.  The ``SpaceContract`` callables handed out by ``get_space`` are
wrapped the same way, per space.  Nothing under ``src/`` is edited, and
``instrument`` restores every binding when it exits.

Spans are aggregated as they close instead of being stored: per wrapped
function the call count, inclusive busy time (outermost call only, so
recursion is not counted twice) and the exceptions that crossed it; per
layer the self time, which is a span's duration minus the durations of its
direct child spans.  The program is single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

SPACES = ("euclidean", "power", "compact-sets", "distributions")
CONTRACT_FIELDS = (("combine_terms", "combine_terms"), ("distance", "distance"),
                   ("convexify_exact", "convexify_exact"), ("sampler", "sample"))


class Tracer:
    """Span aggregation with an injectable clock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list[list[float]] = []  # one [child seconds] cell per open span
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.sums: dict[str, float] = defaultdict(float)
        self.maxes: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)

    def _enter(self, key: str) -> tuple[list[float], float]:
        cell = [0.0]
        self.stack.append(cell)
        self._depth[key] += 1
        return cell, self.clock()

    def _exit(self, layer: str, key: str, cell: list[float], start: float) -> None:
        elapsed = self.clock() - start
        self.stack.pop()
        self._depth[key] -= 1
        self.calls[key] += 1
        if self._depth[key] == 0:
            self.busy[key] += elapsed
        self.self_s[layer] += elapsed - cell[0]
        if self.stack:
            self.stack[-1][0] += elapsed

    def wrap(self, fn: Callable, layer: str, name: str,
             measure: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``layer.name``; ``measure(tracer, result, args, kwargs)``
        records work counts after a successful call."""
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell, start = self._enter(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[key] += 1
                raise
            finally:
                self._exit(layer, key, cell, start)
            if measure is not None:
                measure(self, result, args, kwargs)
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.sums[key] += value

    def peak(self, key: str, value: float) -> None:
        if value > self.maxes[key]:
            self.maxes[key] = value


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _sizes(values) -> int:
    return sum(len(v) for v in values)


def _point_count(body) -> int:
    return len(getattr(body, "points", None) or body.vertices)


def _minkowski(t, result, args, kwargs):
    t.add("geometry.minkowski_combine.points_in", _sizes(_arg(args, kwargs, 1, "sets")))
    t.add("geometry.minkowski_combine.points_out", len(result))
    t.peak("geometry.minkowski_combine.max_points", len(result))


def _hausdorff(t, result, args, kwargs):
    t.add("geometry.hausdorff_distance.pairs", _point_count(args[0]) * _point_count(args[1]))


def _convolution(t, result, args, kwargs):
    t.add("distributions.scaled_convolution_combine.atoms_in", _sizes(_arg(args, kwargs, 1, "dists")))
    t.add("distributions.scaled_convolution_combine.atoms_out", len(result))
    t.peak("distributions.scaled_convolution_combine.max_atoms", len(result))


def _conditional(t, result, args, kwargs):
    t.add("probability.conditional_expectation.atoms", len(result.sample_space))


def _terms(key):
    def measure(t, result, args, kwargs):
        terms = args[1]
        t.add(key, len(terms) if hasattr(terms, "__len__") else 0)
    return measure


def _trials(t, result, args, kwargs):
    t.add("axioms.trials", _arg(args, kwargs, 1, "trials", 1000))


def _trace_points(t, result, args, kwargs):
    indices = getattr(result, "indices", None)
    if indices is not None:
        t.add("limits.trace_points", len(indices))


# (module, attribute, layer, measure); methods are named "Class.method".
TARGETS = (
    ("ccspace.core", "combine", "core", _terms("core.combine.terms")),
    ("ccspace.core", "midpoint", "core", None),
    ("ccspace.core", "uniform_mix", "core", _terms("core.uniform_mix.terms")),
    ("ccspace.core", "convexify", "core", None),
    ("ccspace.core", "self_combination", "core", None),
    ("ccspace.geometry", "minkowski_combine", "geometry", _minkowski),
    ("ccspace.geometry", "hausdorff_distance", "geometry", _hausdorff),
    ("ccspace.geometry", "polytope_combine", "geometry", None),
    ("ccspace.geometry", "convex_hull", "geometry", None),
    ("ccspace.distributions", "scaled_convolution_combine", "distributions", _convolution),
    ("ccspace.distributions", "quantile_resample", "distributions", None),
    ("ccspace.distributions", "wasserstein1", "distributions", None),
    ("ccspace.axioms", "check_axioms", "axioms", _trials),
    ("ccspace.axioms", "check_cancellation", "axioms", _trials),
    ("ccspace.embedding", "embedding_suite", "embedding", None),
    ("ccspace.embedding", "embedded_distance", "embedding", None),
    ("ccspace.embedding", "embed", "embedding", None),
    ("ccspace.embedding", "support_function", "embedding", None),
    ("ccspace.probability", "FiniteSampleSpace.prob", "probability", None),
    ("ccspace.probability", "expectation", "probability", None),
    ("ccspace.probability", "conditional_expectation", "probability", _conditional),
    ("ccspace.probability", "expected_distance", "probability", None),
    ("ccspace.probability", "delta_p", "probability", None),
    ("ccspace.probability", "dyadic_filtration", "probability", None),
    ("ccspace.probability", "martingale_sequence", "probability", None),
    ("ccspace.probability", "martingale_convergence_trace", "probability", None),
    ("ccspace.probability", "jensen_check", "probability", None),
    ("ccspace.probability", "conditional_suite", "probability", None),
    ("ccspace.probability", "expectation_identity_suite", "probability", None),
    ("ccspace.limits", "slln_run", "limits", _trace_points),
    ("ccspace.limits", "ergodic_run", "limits", _trace_points),
    ("ccspace.limits", "convexification_rate", "limits", _trace_points),
    ("ccspace.limits", "raw_vs_convex_average_run", "limits", _trace_points),
    ("ccspace.limits", "scaling_counterexample", "limits", None),
    ("ccspace.limits", "weight_perturbation_suite", "limits", None),
    ("ccspace.limits", "rational_jensen_suite", "limits", None),
    ("ccspace.limits", "weight_perturbation_check", "limits", None),
    ("ccspace.limits", "rational_jensen_check", "limits", None),
)


def _traced_get_space(tracer: Tracer, get_space: Callable) -> Callable:
    @functools.wraps(get_space)
    def traced(name, *args, **kwargs):
        space = get_space(name, *args, **kwargs)
        changes = {
            attr: tracer.wrap(getattr(space, attr), "instances", f"{name}.{label}")
            for attr, label in CONTRACT_FIELDS
            if getattr(space, attr) is not None
        }
        return dataclasses.replace(space, **changes)

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route calls into every traced ccspace function through ``tracer``."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "ccspace" or name.startswith("ccspace.")]
    restore: list[tuple[object, str, object]] = []

    def rebind(original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    try:
        for module_name, attr, layer, measure in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapped = tracer.wrap(original, layer, attr, measure)
            if owner in modules:
                rebind(original, wrapped)
            else:
                restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        get_space = sys.modules["ccspace.instances"].get_space
        rebind(get_space, _traced_get_space(tracer, get_space))
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


def _space_metrics():
    for space in SPACES:
        for _, label in CONTRACT_FIELDS:
            for stat, unit in (("calls", "count"), ("busy_s", "s")):
                yield f"instances.{space}.{label}.{stat}", unit


# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("geometry.minkowski_combine.calls", "count"),
    ("geometry.minkowski_combine.busy_s", "s"),
    ("geometry.minkowski_combine.points_in", "count"),
    ("geometry.minkowski_combine.points_out", "count"),
    ("geometry.minkowski_combine.max_points", "count"),
    ("geometry.hausdorff_distance.calls", "count"),
    ("geometry.hausdorff_distance.busy_s", "s"),
    ("geometry.hausdorff_distance.pairs", "count"),
    ("geometry.polytope_combine.calls", "count"),
    ("geometry.polytope_combine.busy_s", "s"),
    ("geometry.convex_hull.calls", "count"),
    ("geometry.self_s", "s"),
    ("distributions.scaled_convolution_combine.calls", "count"),
    ("distributions.scaled_convolution_combine.busy_s", "s"),
    ("distributions.scaled_convolution_combine.atoms_in", "count"),
    ("distributions.scaled_convolution_combine.atoms_out", "count"),
    ("distributions.scaled_convolution_combine.max_atoms", "count"),
    ("distributions.quantile_resample.calls", "count"),
    ("distributions.wasserstein1.calls", "count"),
    ("distributions.wasserstein1.busy_s", "s"),
    ("distributions.self_s", "s"),
    ("probability.prob.calls", "count"),
    ("probability.prob.busy_s", "s"),
    ("probability.prob.mean_us", "us"),
    ("probability.conditional_expectation.calls", "count"),
    ("probability.conditional_expectation.atoms", "count"),
    ("probability.conditional_expectation.busy_s", "s"),
    ("probability.expectation.calls", "count"),
    ("probability.self_s", "s"),
    ("axioms.self_s", "s"),
    ("axioms.trials", "count"),
    ("embedding.self_s", "s"),
    ("embedding.embedded_distance.calls", "count"),
    ("limits.self_s", "s"),
    ("limits.trace_points", "count"),
    ("core.combine.calls", "count"),
    ("core.combine.terms", "count"),
    ("core.uniform_mix.calls", "count"),
    ("core.uniform_mix.terms", "count"),
    ("core.convexify.calls", "count"),
    ("core.self_s", "s"),
    *_space_metrics(),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("setup.import_s", "s"),
    ("setup.inputs_s", "s"),
    ("trace.errors", "count"),
    ("trace.items_per_s", "1/s"),
    ("trace.untraced_items_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
)


def layer_values(tracer: Tracer, passes: int) -> dict[str, float]:
    """Tracer totals as per-pass values (maxima and means are not divided)."""
    out: dict[str, float] = {}
    for key, n in tracer.calls.items():
        out[f"{key}.calls"] = n / passes
        out[f"{key}.busy_s"] = tracer.busy[key] / passes
    for layer, seconds in tracer.self_s.items():
        out[f"{layer}.self_s"] = seconds / passes
    for key, value in tracer.sums.items():
        out[key] = value / passes
    out.update(tracer.maxes)
    calls = tracer.calls.get("probability.prob", 0)
    out["probability.prob.mean_us"] = 1e6 * tracer.busy["probability.prob"] / calls if calls else 0.0
    out["trace.errors"] = sum(tracer.errors.values()) / passes
    return out
