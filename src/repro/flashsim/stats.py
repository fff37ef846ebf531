"""I/O accounting shared by every simulated storage device.

Each device folds every operation it performs (kind, size, latency, whether
it was sequential) into per-kind totals so experiments can report I/O counts
and latencies — e.g. Table 2 of the paper reports the number of flash reads
per lookup, and §7.3.1 attributes latency to specific I/O classes.  A
per-operation record is the tracer's ``device.*`` event (see
:mod:`repro.telemetry.trace`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional


class IOKind(enum.Enum):
    """Classification of a single device operation."""

    READ = "read"
    WRITE = "write"
    ERASE = "erase"

    # Members are singletons compared by identity, so the identity hash is
    # equivalent to ``Enum.__hash__`` — which is a Python-level function and
    # would put one interpreter frame under every per-kind dict access below.
    __hash__ = object.__hash__


@dataclass(slots=True)
class KindTotals:
    """Running totals of one :class:`IOKind` on one device."""

    ops: int = 0
    nbytes: int = 0
    latency_ms: float = 0.0
    max_latency_ms: float = 0.0
    sequential: int = 0


@dataclass(slots=True)
class IOStats:
    """Aggregated I/O statistics for one device.

    The aggregates are one slotted :class:`KindTotals` per kind, never
    replaced: a device binds the record of its page reads at construction and
    folds each read into it in its own frame (five per-kind dicts cost ten
    ``dict.get``/set per I/O, two calls down).
    """

    totals: Dict[IOKind, KindTotals] = field(
        default_factory=lambda: {kind: KindTotals() for kind in IOKind}
    )

    def add(self, kind: IOKind, nbytes: int, latency_ms: float, sequential: bool) -> None:
        """Fold one operation into the aggregates (what devices call per I/O)."""
        totals = self.totals[kind]
        totals.ops += 1
        totals.nbytes += nbytes
        totals.latency_ms += latency_ms
        if latency_ms > totals.max_latency_ms:
            totals.max_latency_ms = latency_ms
        if sequential:
            totals.sequential += 1

    # -- Convenience accessors -------------------------------------------------

    def count(self, kind: Optional[IOKind] = None) -> int:
        """Number of operations of ``kind`` (or all kinds when omitted)."""
        if kind is None:
            return sum(totals.ops for totals in self.totals.values())
        return self.totals[kind].ops

    def bytes_moved(self, kind: Optional[IOKind] = None) -> int:
        """Bytes transferred by operations of ``kind`` (or all kinds)."""
        if kind is None:
            return sum(totals.nbytes for totals in self.totals.values())
        return self.totals[kind].nbytes

    def total_latency_ms(self, kind: Optional[IOKind] = None) -> float:
        """Accumulated latency of operations of ``kind`` (or all kinds)."""
        if kind is None:
            return sum(totals.latency_ms for totals in self.totals.values())
        return self.totals[kind].latency_ms

    def mean_latency_ms(self, kind: IOKind) -> float:
        """Mean latency of operations of ``kind`` (0 when none were recorded)."""
        totals = self.totals[kind]
        return totals.latency_ms / totals.ops if totals.ops else 0.0

    def max_latency_ms(self, kind: IOKind) -> float:
        """Worst observed latency of operations of ``kind``."""
        return self.totals[kind].max_latency_ms

    def snapshot(self) -> Dict[str, float]:
        """A flat dictionary summary, convenient for printing bench tables."""
        summary: Dict[str, float] = {}
        for kind in IOKind:
            summary[f"{kind.value}_ops"] = float(self.count(kind))
            summary[f"{kind.value}_bytes"] = float(self.bytes_moved(kind))
            summary[f"{kind.value}_mean_ms"] = self.mean_latency_ms(kind)
            summary[f"{kind.value}_max_ms"] = self.max_latency_ms(kind)
        summary["total_ops"] = float(self.count())
        summary["total_latency_ms"] = self.total_latency_ms()
        return summary


def percentile(values: Iterable[float], fraction: float) -> float:
    """Linear-interpolation percentile of ``values`` at ``fraction`` in [0, 1].

    Provided here because several modules need percentile summaries of
    latency samples without depending on numpy.
    """
    data = sorted(values)
    if not data:
        raise ValueError("cannot take the percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    if len(data) == 1:
        return data[0]
    position = fraction * (len(data) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return data[int(position)]
    weight = position - lower
    return data[lower] * (1.0 - weight) + data[upper] * weight
