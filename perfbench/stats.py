"""The end-to-end metrics and the order statistics behind them."""

from __future__ import annotations

import statistics
from typing import NamedTuple, Sequence

# The end-to-end metrics every untraced run reports, with their units.
END_TO_END = (
    ("items_per_s", "1/s"),
    ("op_latency_p50_s", "s"),
    ("op_latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# A tail percentile is reported only with at least this many samples beyond it.
TAIL_BEYOND = 10


class Tail(NamedTuple):
    value: float
    percentile: float
    beyond: int
    count: int


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """Value at the highest percentile that has ``beyond`` samples above it.

    That is the ``beyond + 1``-th largest sample; its percentile is the share
    of samples at or below it.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    ordered = sorted(samples)
    return Tail(ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond, n)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def relative_spread(samples: Sequence[float]) -> float:
    """Distance between the first and third quartiles, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2
