"""Latency metrics: summaries, percentiles and CDF/CCDF series.

The paper reports latency distributions as CDFs (Figures 6 and 7), CCDFs
(Figure 8a) and mean/worst-case numbers (§7.2, Table 3).  These helpers turn
raw per-operation latency samples into exactly those forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.flashsim.stats import percentile


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics over a set of latency samples (milliseconds)."""

    count: int
    mean_ms: float
    median_ms: float
    p90_ms: float
    p99_ms: float
    p999_ms: float
    max_ms: float
    min_ms: float


def summarize_latencies(samples: Iterable[float]) -> LatencySummary:
    """Build a :class:`LatencySummary` from raw latency samples."""
    data = sorted(samples)
    if not data:
        raise ValueError("cannot summarise an empty latency sample set")
    total = sum(data)
    return LatencySummary(
        count=len(data),
        mean_ms=total / len(data),
        median_ms=percentile(data, 0.5),
        p90_ms=percentile(data, 0.9),
        p99_ms=percentile(data, 0.99),
        p999_ms=percentile(data, 0.999),
        max_ms=data[-1],
        min_ms=data[0],
    )


def cdf_points(samples: Sequence[float], num_points: int = 50) -> List[Tuple[float, float]]:
    """(latency, cumulative fraction) pairs suitable for plotting a CDF.

    Points are taken at evenly spaced quantiles so very long tails do not
    dominate the series.
    """
    if not samples:
        raise ValueError("cannot build a CDF from no samples")
    if num_points < 2:
        raise ValueError("num_points must be at least 2")
    data = sorted(samples)
    points: List[Tuple[float, float]] = []
    for i in range(num_points):
        fraction = i / (num_points - 1)
        points.append((percentile(data, fraction), fraction))
    return points


def ccdf_points(samples: Sequence[float], num_points: int = 50) -> List[Tuple[float, float]]:
    """(latency, complementary cumulative fraction) pairs (Figure 8a)."""
    points = cdf_points(samples, num_points)
    return [(latency, max(0.0, 1.0 - fraction)) for latency, fraction in points]


def fraction_at_or_below(samples: Sequence[float], threshold_ms: float) -> float:
    """Fraction of samples with latency <= threshold (e.g. "62 % under 0.02 ms")."""
    if not samples:
        raise ValueError("cannot evaluate an empty sample set")
    return sum(1 for value in samples if value <= threshold_ms) / len(samples)
