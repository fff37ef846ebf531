"""End-to-end WAN optimizer and the paper's two evaluation scenarios (§8).

Scenario 1 — *throughput test*: all objects are available immediately; the
metric is the **effective bandwidth improvement factor**, the ratio of the
time needed to transmit the raw objects at link speed to the time needed to
fingerprint, deduplicate and transmit the compressed objects (Figure 9).

Scenario 2 — *acceleration under high load*: objects arrive at exactly link
rate (the link is 100 % utilised without compression); the metric is the
**per-object throughput improvement factor**, the ratio of each object's
achieved throughput with and without the optimizer (Figure 10).

Beyond the paper, :class:`MultiBranchThroughputTest` runs Scenario 1 over a
:class:`~repro.wanopt.topology.MultiBranchTopology`: N branch offices share
one replicated data-center fingerprint index, a failure schedule can crash
and recover shards mid-run, and the report carries per-branch and aggregate
bandwidth-improvement factors plus cross-branch dedup hit rates and the far
side's reconstruction verdict.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.flashsim.clock import SimulationClock
from repro.service.rebalance import MigrationReport
from repro.service.simulator import FailureEvent, fire_due_events
from repro.wanopt.engine import CompressionEngine
from repro.wanopt.network import Link
from repro.wanopt.topology import BranchOffice, MultiBranchTopology
from repro.wanopt.traces import TraceObject


@dataclass(frozen=True)
class ThroughputTestResult:
    """Outcome of the Scenario-1 throughput test."""

    link_mbps: float
    total_original_bytes: int
    total_compressed_bytes: int
    time_without_optimizer_ms: float
    time_with_optimizer_ms: float
    processing_time_ms: float
    transmit_time_ms: float

    @property
    def effective_bandwidth_improvement(self) -> float:
        """time(raw at link speed) / time(optimized) — Figure 9's y-axis."""
        if self.time_with_optimizer_ms <= 0:
            return float("inf")
        return self.time_without_optimizer_ms / self.time_with_optimizer_ms

    @property
    def ideal_improvement(self) -> float:
        """The compression ratio, i.e. the best possible improvement."""
        if self.total_compressed_bytes <= 0:
            return float("inf")
        return self.total_original_bytes / self.total_compressed_bytes


@dataclass(frozen=True)
class ObjectTimeline:
    """Per-object record for the Scenario-2 high-load test."""

    object_id: int
    size_bytes: int
    arrival_ms: float
    completion_ms: float
    baseline_duration_ms: float

    @property
    def duration_ms(self) -> float:
        """Arrival-to-last-byte latency with the optimizer."""
        return self.completion_ms - self.arrival_ms

    @property
    def throughput_improvement(self) -> float:
        """throughput(with optimizer) / throughput(without) — Figure 10's y-axis."""
        if self.duration_ms <= 0:
            return float("inf")
        return self.baseline_duration_ms / self.duration_ms


@dataclass
class HighLoadResult:
    """Outcome of the Scenario-2 acceleration test."""

    link_mbps: float
    objects: List[ObjectTimeline] = field(default_factory=list)

    @property
    def mean_throughput_improvement(self) -> float:
        """Average per-object improvement factor."""
        if not self.objects:
            return 0.0
        return sum(obj.throughput_improvement for obj in self.objects) / len(self.objects)

    def fraction_worse_than(self, factor: float) -> float:
        """Fraction of objects whose throughput *dropped* below ``factor``×."""
        if not self.objects:
            return 0.0
        worse = sum(1 for obj in self.objects if obj.throughput_improvement < factor)
        return worse / len(self.objects)


class WANOptimizer:
    """Connection manager + compression engine + network subsystem."""

    def __init__(
        self,
        engine: CompressionEngine,
        link: Link,
        clock: SimulationClock,
    ) -> None:
        self.engine = engine
        self.link = link
        self.clock = clock
        if link.clock is not clock:
            raise ValueError("link and optimizer must share the simulation clock")

    # -- Scenario 1: throughput test -----------------------------------------------------

    def run_throughput_test(self, objects: Sequence[TraceObject]) -> ThroughputTestResult:
        """All objects arrive at once; measure total transfer time with/without.

        Like real WAN optimizers (and the paper's testbed), the compression
        engine and the link work as a pipeline: object ``i+1`` is fingerprinted
        and deduplicated while object ``i`` is still being transmitted.  The
        simulation clock is driven by the compression engine (its two index
        round trips per object and its cache I/O); the link is modelled as a
        second resource whose busy time overlaps engine time, so the total
        transfer time is the larger of the two plus any residual.
        """
        run = _LinkPipeline(self.clock, self.link)
        for obj in objects:
            before = self.clock.now_ms
            result = self.engine.process_object_batched(obj, clock=self.clock)
            run.send(before, result.original_bytes, result.compressed_bytes)
        return run.result()

    # -- Scenario 2: acceleration under high load ------------------------------------------

    def run_high_load_test(self, objects: Sequence[TraceObject]) -> HighLoadResult:
        """Objects arrive at link rate; measure per-object completion latency."""
        result = HighLoadResult(link_mbps=self.link.bandwidth_mbps)
        experiment_start = self.clock.now_ms
        arrival_ms = experiment_start
        for obj in objects:
            baseline_duration = self.link.serialization_delay_ms(obj.size_bytes)
            # The optimizer can only start once the object has arrived and the
            # previous object has been fully handled (single pipeline).
            if self.clock.now_ms < arrival_ms:
                self.clock.advance(arrival_ms - self.clock.now_ms)
            compression = self.engine.process_object_batched(obj, clock=self.clock)
            self.link.transmit(compression.compressed_bytes)
            result.objects.append(
                ObjectTimeline(
                    object_id=obj.object_id,
                    size_bytes=obj.size_bytes,
                    arrival_ms=arrival_ms,
                    completion_ms=self.clock.now_ms,
                    baseline_duration_ms=baseline_duration,
                )
            )
            # Next object arrives when the raw link would have finished this one.
            arrival_ms += baseline_duration
        return result


# -- Scenario 1 at scale: multi-branch deployments ------------------------------------------


@dataclass(frozen=True)
class BranchThroughputResult(ThroughputTestResult):
    """One branch office's Scenario-1 outcome inside a multi-branch run."""

    branch_id: str
    objects: int
    pass_through_objects: int
    chunks_total: int
    chunks_matched: int
    cross_branch_matched: int

    @property
    def dedup_hit_rate(self) -> float:
        """Fraction of this branch's chunks replaced by references."""
        return self.chunks_matched / self.chunks_total if self.chunks_total else 0.0

    @property
    def cross_branch_hit_rate(self) -> float:
        """Fraction of chunks matched against *another* branch's uploads."""
        return self.cross_branch_matched / self.chunks_total if self.chunks_total else 0.0


@dataclass
class MultiBranchThroughputResult:
    """Aggregate outcome of a multi-branch Scenario-1 run."""

    branches: List[BranchThroughputResult] = field(default_factory=list)
    objects_total: int = 0
    objects_compressed: int = 0
    objects_pass_through: int = 0
    chunks_total: int = 0
    chunks_matched: int = 0
    cross_branch_matched: int = 0
    objects_reconstructed_exactly: int = 0
    chunks_lost: int = 0
    #: Schedule events that fired, as (object_no, action, shard).
    fired_events: List[Tuple[int, str, Optional[str]]] = field(default_factory=list)
    #: Reports from scheduled ``recover`` events, in firing order.
    recovery_reports: List[MigrationReport] = field(default_factory=list)

    @property
    def aggregate_bandwidth_improvement(self) -> float:
        """Total raw transmission time over total optimized time, all branches.

        Branch links run in parallel, so this is a work ratio: how much
        link-time the fleet of branches saved overall.  With one branch it
        reduces to that branch's effective bandwidth improvement factor.
        """
        time_without = sum(b.time_without_optimizer_ms for b in self.branches)
        time_with = sum(b.time_with_optimizer_ms for b in self.branches)
        if time_with <= 0:
            return float("inf")
        return time_without / time_with

    @property
    def availability(self) -> float:
        """Objects compressed over objects issued (pass-through = degraded)."""
        if self.objects_total == 0:
            return 1.0
        return self.objects_compressed / self.objects_total

    @property
    def dedup_hit_rate(self) -> float:
        """Fraction of all chunks (fleet-wide) replaced by references."""
        return self.chunks_matched / self.chunks_total if self.chunks_total else 0.0

    @property
    def cross_branch_hit_rate(self) -> float:
        """Fraction of all chunks matched against another branch's uploads."""
        return self.cross_branch_matched / self.chunks_total if self.chunks_total else 0.0


class MultiBranchThroughputTest:
    """Scenario 1 over a multi-branch topology with a failure schedule.

    Branches are interleaved round-robin object by object (the deterministic
    analogue of concurrent uploads), each branch running the same
    engine-and-link pipeline as :meth:`WANOptimizer.run_throughput_test` on
    its own clock, with every fingerprint lookup/insert flowing to the
    shared data-center index as one batched round trip per object.
    ``schedule`` events fire just before the Nth object (globally) is
    dispatched and whatever is left after the last one: the traffic
    simulator's rule (:func:`~repro.service.simulator.fire_due_events`).
    """

    def __init__(self, topology: MultiBranchTopology) -> None:
        self.topology = topology

    def run(
        self,
        branch_objects: Sequence[Sequence[TraceObject]],
        schedule: Sequence[FailureEvent] = (),
    ) -> MultiBranchThroughputResult:
        """Process per-branch object streams and report the fleet outcome."""
        topology = self.topology
        if len(branch_objects) != len(topology.branches):
            raise ValueError(
                f"{len(branch_objects)} object streams for "
                f"{len(topology.branches)} branches"
            )
        dispatched = 0
        result = MultiBranchThroughputResult()
        pending = deque(sorted(schedule, key=lambda event: event.at_request))

        accumulators = [
            _BranchAccumulator(branch, objects)
            for branch, objects in zip(topology.branches, branch_objects)
        ]
        rounds = max((len(objects) for objects in branch_objects), default=0)
        for position in range(rounds):
            for accumulator in accumulators:
                if position >= len(accumulator.objects):
                    continue
                fire_due_events(pending, dispatched, topology.fire_event, result)
                accumulator.process(topology, accumulator.objects[position])
                dispatched += 1
        fire_due_events(pending, math.inf, topology.fire_event, result)

        for accumulator in accumulators:
            result.branches.append(accumulator.finish())
        result.objects_total = topology.objects_total
        result.objects_compressed = topology.objects_compressed
        result.objects_pass_through = topology.objects_pass_through
        result.chunks_total = sum(b.chunks_total for b in result.branches)
        result.chunks_matched = sum(b.chunks_matched for b in result.branches)
        result.cross_branch_matched = sum(b.cross_branch_matched for b in result.branches)
        result.objects_reconstructed_exactly = topology.receiver.objects_exact
        result.chunks_lost = topology.receiver.chunks_lost
        return result


class _LinkPipeline:
    """Scenario 1's engine-and-link accounting on one clock and link.

    The engine runs on ``clock``; each object it finishes is queued on the
    link at once (:meth:`Link.send_overlapped`), so the run ends when both
    the engine and the link are done.
    """

    def __init__(self, clock: SimulationClock, link: Link) -> None:
        self.clock = clock
        self.link = link
        self.start_ms = clock.now_ms
        self.processing_ms = 0.0
        self.transmit_ms = 0.0
        self.total_original = 0
        self.total_compressed = 0
        link.start_idle()

    def send(self, before_ms: float, original_bytes: int, wire_bytes: int) -> None:
        """Account one object the engine started at ``before_ms`` and finished now."""
        self.processing_ms += self.clock.now_ms - before_ms
        self.total_original += original_bytes
        self.total_compressed += wire_bytes
        self.transmit_ms += self.link.send_overlapped(wire_bytes)

    def result(self, result_type=ThroughputTestResult, **fields):
        """The run so far as a ``result_type``, which may take extra ``fields``."""
        link = self.link
        return result_type(
            link_mbps=link.bandwidth_mbps,
            total_original_bytes=self.total_original,
            total_compressed_bytes=self.total_compressed,
            time_without_optimizer_ms=link.serialization_delay_ms(self.total_original),
            time_with_optimizer_ms=max(self.clock.now_ms, link.drained_at_ms) - self.start_ms,
            processing_time_ms=self.processing_ms,
            transmit_time_ms=self.transmit_ms,
            **fields,
        )


class _BranchAccumulator(_LinkPipeline):
    """Per-branch pipeline state while a multi-branch run is in flight."""

    def __init__(self, branch: BranchOffice, objects: Sequence[TraceObject]) -> None:
        super().__init__(branch.clock, branch.link)
        self.branch = branch
        self.objects = objects
        self.chunks_total = 0
        self.chunks_matched = 0
        self.cross_branch_matched = 0
        self.pass_through = 0

    def process(self, topology: MultiBranchTopology, obj: TraceObject) -> None:
        before = self.clock.now_ms
        outcome = topology.process_branch_object(self.branch, obj)
        self.chunks_total += obj.num_chunks
        self.cross_branch_matched += outcome.cross_branch_matched
        if outcome.pass_through:
            self.pass_through += 1
        else:
            self.chunks_matched += outcome.result.chunks_matched
        # Compressed or raw, the object goes out as the engine moves on.
        self.send(before, obj.size_bytes, outcome.wire_bytes)

    def finish(self) -> BranchThroughputResult:
        return self.result(
            BranchThroughputResult,
            branch_id=self.branch.branch_id,
            objects=len(self.objects),
            pass_through_objects=self.pass_through,
            chunks_total=self.chunks_total,
            chunks_matched=self.chunks_matched,
            cross_branch_matched=self.cross_branch_matched,
        )
