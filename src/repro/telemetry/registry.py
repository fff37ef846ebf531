"""Metrics registry: counters, gauges and mergeable fixed-bucket histograms.

The paper evaluates CLAM almost entirely through latency distributions and
per-operation I/O counts (Figures 4-7, Table 2).  This module is the
substrate those numbers flow through: every shard owns a
:class:`MetricsRegistry`, histograms over the simulated clock's millisecond
time base are **mergeable** across shards (bucket-wise addition over a shared
set of boundaries), and the whole registry exports as a JSON snapshot.

Design constraints, in order:

* **Zero-alloc hot path.**  ``LatencyHistogram.observe`` is a bisect into a
  pre-built boundary tuple plus a handful of scalar updates — no per-sample
  storage, no dict lookups.  Callers cache the histogram object once (CLAM
  holds ``self._tel_lookup`` etc.) so the per-operation cost when telemetry
  is enabled is one attribute read + one method call.
* **Merge exactness.**  Two histograms over the same boundaries merge by
  adding bucket counts, so ``merge(A, B)`` is *bit-identical* to the
  histogram of the concatenated stream and any percentile estimate agrees
  with the whole-stream estimate within one bucket width (property-tested in
  ``tests/test_telemetry.py``).
* **Conservative percentiles.**  ``percentile`` returns the upper edge of
  the bucket holding the requested rank (clamped to the observed max), i.e.
  an upper bound on the true percentile — the right direction to err for
  tail-latency reporting.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "default_latency_buckets",
]

#: Percentiles every histogram snapshot reports, matching the paper's
#: distribution-centric evaluation (median through extreme tail).
REPORTED_PERCENTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
    ("p999", 0.999),
)


def default_latency_buckets() -> Tuple[float, ...]:
    """Log-spaced bucket upper edges covering ``[1e-4, 1e4]`` ms.

    The simulated latencies span DRAM probes (~1e-3 ms) to multi-object WAN
    round trips (~1e3 ms); ten buckets per decade keeps the relative error of
    any bucket-edge percentile under ~26% (one bucket width, 10^0.1).
    """
    low_ms, decades, per_decade = 1e-4, 8, 10
    edges = [low_ms * 10 ** (i / per_decade) for i in range(decades * per_decade + 1)]
    # Round away float-noise so independently built boundary tuples compare equal.
    return tuple(float(f"{edge:.6g}") for edge in edges)


_DEFAULT_BUCKETS = default_latency_buckets()


class Counter:
    """Monotonically increasing scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Point-in-time scalar (live shard count, buffer occupancy, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> float:
        return self.value


class LatencyHistogram:
    """Fixed-boundary latency histogram on the simulated-ms time base.

    ``counts`` has ``len(boundaries) + 1`` slots: ``counts[i]`` holds samples
    with ``value <= boundaries[i]`` (after ``counts[i-1]``'s range), and the
    final slot is the overflow bucket for samples above the last edge.
    """

    __slots__ = ("name", "boundaries", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, boundaries: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.boundaries: Tuple[float, ...] = (
            _DEFAULT_BUCKETS if boundaries is None else tuple(boundaries)
        )
        if list(self.boundaries) != sorted(self.boundaries) or not self.boundaries:
            raise ValueError("boundaries must be a non-empty ascending sequence")
        self.counts: List[int] = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value_ms: float) -> None:
        """Record one sample.  Hot path: no allocation, no branching on config."""
        self.counts[bisect_left(self.boundaries, value_ms)] += 1
        self.count += 1
        self.sum += value_ms
        if value_ms < self.min:
            self.min = value_ms
        if value_ms > self.max:
            self.max = value_ms

    # -- Estimation -------------------------------------------------------------------

    def percentile(self, fraction: float) -> float:
        """Upper bound on the ``fraction`` percentile (bucket upper edge).

        Uses the nearest-rank definition: the smallest recorded value such
        that at least ``fraction`` of samples are <= it, then rounds up to
        the containing bucket's upper edge (clamped to the observed max so
        p999 never exceeds the worst sample).
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(fraction * self.count))
        index = self._bucket_for_rank(rank)
        if index < len(self.boundaries):
            return min(self.boundaries[index], self.max)
        return self.max

    def _bucket_for_rank(self, rank: int) -> int:
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                return index
        return len(self.counts) - 1

    def percentiles(self) -> Dict[str, float]:
        return {label: self.percentile(fraction) for label, fraction in REPORTED_PERCENTILES}

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    # -- Merging ----------------------------------------------------------------------

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` into this histogram (exact: bucket-wise addition)."""
        if other.boundaries != self.boundaries:
            raise ValueError(
                f"cannot merge histograms with different boundaries "
                f"({self.name!r} vs {other.name!r})"
            )
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    @classmethod
    def merged(
        cls, name: str, histograms: Iterable["LatencyHistogram"]
    ) -> "LatencyHistogram":
        """A fresh histogram equal to the fold of ``histograms``."""
        result: Optional[LatencyHistogram] = None
        for histogram in histograms:
            if result is None:
                result = cls(name, histogram.boundaries)
            result.merge(histogram)
        return result if result is not None else cls(name)

    @classmethod
    def from_snapshot(cls, name: str, data: Dict[str, object]) -> "LatencyHistogram":
        """Rebuild a histogram from a :meth:`snapshot` taken with buckets.

        This is the worker-to-parent half of per-process telemetry: a shard
        worker snapshots its registry (``include_buckets=True``), ships the
        JSON over the wire, and the parent rebuilds histograms it can merge
        exactly.  Bucket arrays are required — without them the merge could
        not be exact.
        """
        edges = data.get("bucket_edges_ms")
        counts = data.get("bucket_counts")
        if edges is None or counts is None:
            raise ValueError(
                f"histogram snapshot for {name!r} has no bucket arrays; "
                "snapshot with include_buckets=True to make it mergeable"
            )
        histogram = cls(name, edges)
        if len(counts) != len(histogram.counts):
            raise ValueError(f"histogram snapshot for {name!r} has mismatched bucket counts")
        histogram.counts = [int(c) for c in counts]
        histogram.count = int(data["count"])
        histogram.sum = float(data["sum_ms"])
        if histogram.count:
            histogram.min = float(data["min_ms"])
            histogram.max = float(data["max_ms"])
        return histogram

    # -- Export -----------------------------------------------------------------------

    def snapshot(self, include_buckets: bool = False) -> Dict[str, object]:
        """JSON-friendly view; bucket arrays only on request (they are long)."""
        empty = self.count == 0
        data: Dict[str, object] = {
            "count": self.count,
            "sum_ms": self.sum,
            "mean_ms": self.mean,
            "min_ms": 0.0 if empty else self.min,
            "max_ms": 0.0 if empty else self.max,
            "percentiles_ms": self.percentiles(),
        }
        if include_buckets:
            data["bucket_edges_ms"] = list(self.boundaries)
            data["bucket_counts"] = list(self.counts)
        return data


class MetricsRegistry:
    """Named counters, gauges and histograms with get-or-create accessors."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, boundaries: Optional[Sequence[float]] = None
    ) -> LatencyHistogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = LatencyHistogram(name, boundaries)
        return histogram

    # -- Merging ----------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s metrics into this registry, name-wise."""
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(name).add(gauge.value)
        for name, histogram in other._histograms.items():
            self.histogram(name, histogram.boundaries).merge(histogram)

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        result = cls()
        for registry in registries:
            result.merge(registry)
        return result

    @classmethod
    def from_snapshot(cls, data: Dict[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` taken with buckets.

        Counters and gauges restore exactly; histograms restore bucket-wise
        (see :meth:`LatencyHistogram.from_snapshot`), so merging restored
        per-worker registries is bit-identical to merging the live ones.
        """
        registry = cls()
        for name, value in data.get("counters", {}).items():
            registry.counter(name).inc(float(value))
        for name, value in data.get("gauges", {}).items():
            registry.gauge(name).set(float(value))
        for name, histogram_data in data.get("histograms", {}).items():
            registry._histograms[name] = LatencyHistogram.from_snapshot(name, histogram_data)
        return registry

    # -- Export -----------------------------------------------------------------------

    def snapshot(self, include_buckets: bool = False) -> Dict[str, object]:
        """JSON-friendly dump of every metric in the registry."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.snapshot(include_buckets=include_buckets)
                for name, h in sorted(self._histograms.items())
            },
        }
