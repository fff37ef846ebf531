"""Workload runner: executes an operation stream against any hash index.

The runner only requires the index to expose the common
``insert``/``lookup``/``update``/``delete`` methods returning the result
records from :mod:`repro.core.results`; both :class:`repro.core.CLAM` and
every baseline in :mod:`repro.baselines` qualify, so a single runner powers
all the comparative experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Protocol

from repro.core.results import DeleteResult, InsertResult, LookupResult
from repro.workloads.metrics import LatencySummary, summarize_latencies
from repro.workloads.workload import Operation, OpKind


class HashIndex(Protocol):
    """Structural type of anything the runner can drive."""

    def insert(self, key, value) -> InsertResult:  # pragma: no cover - protocol
        ...

    def lookup(self, key) -> LookupResult:  # pragma: no cover - protocol
        ...

    def update(self, key, value) -> InsertResult:  # pragma: no cover - protocol
        ...

    def delete(self, key) -> DeleteResult:  # pragma: no cover - protocol
        ...


def apply_operation(index: HashIndex, operation: Operation):
    """Dispatch one workload operation to ``index`` and return its result record.

    The sequential runner's dispatch switch; the service layer's batch path
    has its own (``repro.service.shard.apply_batch``).  Accounting switches
    (``_record`` here, the gather loop of :mod:`repro.service.batch`) fold
    results into different report shapes, and every one of these switches
    must learn about any future operation kind.
    """
    key = operation.key
    if operation.kind is OpKind.LOOKUP:
        return index.lookup(key)
    if operation.kind is OpKind.INSERT:
        return index.insert(key, operation.value)
    if operation.kind is OpKind.UPDATE:
        return index.update(key, operation.value)
    if operation.kind is OpKind.DELETE:
        return index.delete(key)
    raise ValueError(f"unknown operation kind {operation.kind!r}")


@dataclass
class RunReport:
    """Everything an experiment needs to know about one workload run."""

    operations: int = 0
    lookups: int = 0
    inserts: int = 0
    deletes: int = 0
    lookup_hits: int = 0
    lookup_latencies_ms: List[float] = field(default_factory=list)
    insert_latencies_ms: List[float] = field(default_factory=list)
    lookup_flash_reads: List[int] = field(default_factory=list)
    simulated_duration_ms: float = 0.0

    @property
    def lookup_success_rate(self) -> float:
        """Observed LSR."""
        return self.lookup_hits / self.lookups if self.lookups else 0.0

    @property
    def mean_lookup_latency_ms(self) -> float:
        """Mean lookup latency."""
        if not self.lookup_latencies_ms:
            return 0.0
        return sum(self.lookup_latencies_ms) / len(self.lookup_latencies_ms)

    @property
    def mean_insert_latency_ms(self) -> float:
        """Mean insert/update latency."""
        if not self.insert_latencies_ms:
            return 0.0
        return sum(self.insert_latencies_ms) / len(self.insert_latencies_ms)

    @property
    def mean_latency_per_operation_ms(self) -> float:
        """Mean latency over every operation in the run (Table 3's metric)."""
        total = sum(self.lookup_latencies_ms) + sum(self.insert_latencies_ms)
        count = len(self.lookup_latencies_ms) + len(self.insert_latencies_ms)
        return total / count if count else 0.0

    @property
    def throughput_ops_per_second(self) -> float:
        """Operations per simulated second."""
        if self.simulated_duration_ms <= 0:
            return 0.0
        return self.operations / (self.simulated_duration_ms / 1000.0)

    def lookup_summary(self) -> LatencySummary:
        """Latency summary over lookups."""
        return summarize_latencies(self.lookup_latencies_ms)

    def insert_summary(self) -> LatencySummary:
        """Latency summary over inserts/updates."""
        return summarize_latencies(self.insert_latencies_ms)

    def flash_reads_histogram(self) -> Dict[int, float]:
        """Distribution of flash reads per lookup (Table 2's left column)."""
        if not self.lookup_flash_reads:
            return {}
        counts: Dict[int, int] = {}
        for reads in self.lookup_flash_reads:
            counts[reads] = counts.get(reads, 0) + 1
        total = len(self.lookup_flash_reads)
        return {reads: count / total for reads, count in sorted(counts.items())}


class WorkloadRunner:
    """Executes operation streams and collects latency/IO observations."""

    def __init__(self, index: HashIndex, clock=None) -> None:
        self.index = index
        # The clock is optional; when present the report includes simulated
        # wall-clock duration (every CLAM/baseline carries one).
        self.clock = clock if clock is not None else getattr(index, "clock", None)

    def run(
        self, operations: Iterable[Operation], max_operations: Optional[int] = None
    ) -> RunReport:
        """Execute ``operations`` in order and return a :class:`RunReport`."""
        report = RunReport()
        start_ms = self.clock.now_ms if self.clock is not None else 0.0
        for index, operation in enumerate(operations):
            if max_operations is not None and index >= max_operations:
                break
            result = apply_operation(self.index, operation)
            _record(report, operation, result)
        if self.clock is not None:
            report.simulated_duration_ms = self.clock.now_ms - start_ms
        return report

    def run_batched(self, operations: Iterable[Operation], batch_size: int = 64) -> RunReport:
        """Execute ``operations`` in fixed-size batches via ``execute_batch``.

        Requires an index with ``execute_batch`` returning an object whose
        ``results`` are in submission order (e.g. a
        :class:`repro.service.cluster.ClusterService`).  Per-operation results
        are folded into the same :class:`RunReport` shape as :meth:`run`, so
        sequential and batched executions of one workload compare directly.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        execute_batch = getattr(self.index, "execute_batch", None)
        if execute_batch is None:
            raise TypeError(
                f"{type(self.index).__name__} does not support batched execution"
            )
        report = RunReport()
        start_ms = self.clock.now_ms if self.clock is not None else 0.0
        pending: List[Operation] = []
        for operation in operations:
            pending.append(operation)
            if len(pending) >= batch_size:
                self._flush_batch(execute_batch, pending, report)
                pending = []
        if pending:
            self._flush_batch(execute_batch, pending, report)
        if self.clock is not None:
            report.simulated_duration_ms = self.clock.now_ms - start_ms
        return report

    @staticmethod
    def _flush_batch(execute_batch, pending: List[Operation], report: RunReport) -> None:
        batch = execute_batch(pending)
        for operation, result in zip(pending, batch.results):
            _record(report, operation, result)


def _record(report: RunReport, operation: Operation, result) -> None:
    """Fold one operation's result record into the report."""
    report.operations += 1
    if operation.kind is OpKind.LOOKUP:
        report.lookups += 1
        if result.found:
            report.lookup_hits += 1
        report.lookup_latencies_ms.append(result.latency_ms)
        report.lookup_flash_reads.append(result.flash_reads)
    elif operation.kind is OpKind.INSERT:
        report.inserts += 1
        report.insert_latencies_ms.append(result.latency_ms)
    elif operation.kind is OpKind.UPDATE:
        report.insert_latencies_ms.append(result.latency_ms)
    elif operation.kind is OpKind.DELETE:
        report.deletes += 1
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown operation kind {operation.kind!r}")
