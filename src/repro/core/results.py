"""Result records returned by BufferHash / CLAM operations.

Every operation reports the simulated latency it incurred and how it was
served, so experiments can build the latency CDFs (Figures 6-8), the flash
I/O distribution (Table 2) and the per-operation breakdowns (§7.3) without
instrumenting the data structure from outside.

The records are ``@dataclass(slots=True)``: one is built per operation and kept
per key by batch callers, and without a ``__dict__`` it is one allocation, not
two.  The fields are fixed: nothing can hang an ad-hoc attribute on a result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class ServedFrom(enum.Enum):
    """Where a lookup was resolved."""

    BUFFER = "buffer"
    INCARNATION = "incarnation"
    DELETED = "deleted"
    MISSING = "missing"


@dataclass(slots=True)
class LookupResult:
    """Outcome of one lookup."""

    key: bytes
    value: Optional[bytes]
    latency_ms: float
    served_from: ServedFrom
    flash_reads: int = 0
    incarnations_checked: int = 0
    false_positive_reads: int = 0

    @property
    def found(self) -> bool:
        """Whether a value was returned."""
        return self.value is not None


@dataclass(slots=True)
class InsertResult:
    """Outcome of one insert (or update)."""

    key: bytes
    latency_ms: float
    flushed: bool = False
    flush_latency_ms: float = 0.0
    incarnations_tried: int = 0
    flash_writes: int = 0
    flash_reads: int = 0


@dataclass(slots=True)
class DeleteResult:
    """Outcome of one delete."""

    key: bytes
    latency_ms: float
    removed_from_buffer: bool = False


@dataclass(slots=True)
class FlushResult:
    """Outcome of flushing a buffer to flash."""

    latency_ms: float = 0.0
    incarnations_tried: int = 0
    flash_writes: int = 0
    flash_reads: int = 0
    forced_full_discard: bool = False


@dataclass(slots=True)
class OperationStats:
    """Running aggregates over many operations (maintained by CLAM).

    Counts, totals and maxima only: the state is O(1) however many operations
    an index serves.  A caller that wants per-operation latency samples keeps
    them itself, as :class:`~repro.workloads.runner.WorkloadRunner` does.
    """

    lookups: int = 0
    lookup_latency_total_ms: float = 0.0
    lookup_latency_max_ms: float = 0.0
    lookup_hits: int = 0
    inserts: int = 0
    insert_latency_total_ms: float = 0.0
    insert_latency_max_ms: float = 0.0
    deletes: int = 0
    flash_reads: int = 0
    flash_writes: int = 0
    false_positive_reads: int = 0

    def record_lookup(self, result: LookupResult) -> None:
        self.lookups += 1
        self.lookup_latency_total_ms += result.latency_ms
        if result.latency_ms > self.lookup_latency_max_ms:
            self.lookup_latency_max_ms = result.latency_ms
        if result.value is not None:
            self.lookup_hits += 1
        self.flash_reads += result.flash_reads
        self.false_positive_reads += result.false_positive_reads

    def record_insert(self, result: InsertResult) -> None:
        self.inserts += 1
        self.insert_latency_total_ms += result.latency_ms
        if result.latency_ms > self.insert_latency_max_ms:
            self.insert_latency_max_ms = result.latency_ms
        self.flash_writes += result.flash_writes
        self.flash_reads += result.flash_reads

    @property
    def mean_lookup_latency_ms(self) -> float:
        """Mean lookup latency over all recorded lookups."""
        return self.lookup_latency_total_ms / self.lookups if self.lookups else 0.0

    @property
    def mean_insert_latency_ms(self) -> float:
        """Mean insert latency over all recorded inserts."""
        return self.insert_latency_total_ms / self.inserts if self.inserts else 0.0

    @property
    def lookup_success_rate(self) -> float:
        """Fraction of lookups that found a value."""
        return self.lookup_hits / self.lookups if self.lookups else 0.0

    def counters(self) -> dict:
        """Cheap flat snapshot of the aggregate counters.

        This is the per-instance stats hook the service layer merges across
        shards; it deliberately copies only O(1) scalars so polling a large
        fleet stays inexpensive even mid-run.
        """
        return {
            "lookups": float(self.lookups),
            "lookup_hits": float(self.lookup_hits),
            "lookup_latency_total_ms": self.lookup_latency_total_ms,
            "lookup_latency_max_ms": self.lookup_latency_max_ms,
            "inserts": float(self.inserts),
            "insert_latency_total_ms": self.insert_latency_total_ms,
            "insert_latency_max_ms": self.insert_latency_max_ms,
            "deletes": float(self.deletes),
            "flash_reads": float(self.flash_reads),
            "flash_writes": float(self.flash_writes),
            "false_positive_reads": float(self.false_positive_reads),
        }
