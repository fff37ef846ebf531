"""Multi-branch WAN-optimizer deployment over a replicated CLAM cluster.

The paper's flagship application (§8) is a WAN optimizer whose compression
engine deduplicates chunk fingerprints against a CLAM index.  Its evaluation
is a single box; the deployments the paper motivates — branch offices of one
organisation uploading to a data center — share content *across* sites, so
the fingerprint index wants to be one logical, failure-tolerant service
rather than a per-box table.  This module composes the two halves of the
codebase into exactly that topology:

* **N branch offices**, each with its own simulation clock, WAN
  :class:`~repro.wanopt.network.Link` and local
  :class:`~repro.wanopt.engine.CompressionEngine`;
* **one data-center fingerprint index**, normally a replicated
  :class:`~repro.service.cluster.ClusterService` (``replication_factor >= 2``)
  — branch engines reach it with *one batched round trip per object*
  (:meth:`~repro.wanopt.engine.CompressionEngine.process_object_batched`),
  each round trip fanned out across shard sub-batches by the cluster's
  :class:`~repro.service.batch.BatchExecutor`;
* **one data-center content cache** holding every literal chunk any branch
  uploaded, which is what makes a *cross-branch* match resolvable on the far
  side.

Failure behaviour is first-class: :class:`~repro.service.simulator.FailureEvent`
schedules crash, heal or recover shards mid-run (:meth:`MultiBranchTopology.
fire_event`; a recovery is ``KeyMigrator.recover``, run to completion as it
fires), reads and writes fail over along each key's preference list,
and when no live replica remains the optimizer **degrades to pass-through** —
the object crosses the wire uncompressed, never as unresolvable references.
The :class:`DedupReceiver` models the far side and proves it: every
referenced chunk must already sit in the shared store, so reconstruction is
byte-exact or the loss is counted, never silent.

The Scenario-1 style harness driving this topology is
:class:`repro.wanopt.optimizer.MultiBranchThroughputTest`;
``benchmarks/bench_wanopt_cluster.py`` sweeps branches × shards × RF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError, ShardUnavailableError
from repro.flashsim.clock import SimulationClock
from repro.flashsim.disk import MagneticDisk
from repro.service.cluster import ClusterService
from repro.service.rebalance import KeyMigrator, MigrationReport
from repro.service.simulator import FailureEvent, fire_failure_event
from repro.telemetry import trace as _trace
from repro.wanopt.cache import ContentCache
from repro.wanopt.engine import (
    CompressionEngine,
    FingerprintIndex,
    ObjectCompressionResult,
)
from repro.wanopt.network import Link
from repro.wanopt.traces import TraceObject


@dataclass
class BranchOffice:
    """One branch site: its clock, WAN link and local compression engine.

    The engine's fingerprint index and content cache are the *shared*
    data-center resources (every branch engine points at the same ones);
    everything clocked here — fingerprinting CPU, waiting out index round
    trips, link serialisation — runs on the branch's private timeline.
    """

    branch_id: str
    clock: SimulationClock
    link: Link
    engine: CompressionEngine
    pass_through_objects: int = 0


@dataclass
class BranchObjectOutcome:
    """What happened to one object at one branch."""

    branch: BranchOffice
    obj: TraceObject
    #: Engine result, or ``None`` when the object degraded to pass-through.
    result: Optional[ObjectCompressionResult]
    #: Bytes that crossed the WAN link for this object.
    wire_bytes: int = 0
    #: Matched chunks whose first literal upload came from a *different* branch.
    cross_branch_matched: int = 0
    #: Whether the far side reassembled the object byte-exactly.
    reconstructed_exactly: bool = True
    #: Referenced chunks the far side could not resolve (must stay 0).
    chunks_lost: int = 0

    @property
    def pass_through(self) -> bool:
        """Whether the optimizer gave up and sent the object raw."""
        return self.result is None


class DedupReceiver:
    """The decompressing far side of every branch's WAN link.

    The data center reassembles each object from the literal chunks and
    references the branch sent.  A reference is resolvable only if the
    referenced chunk already arrived literally (from any branch) — the
    receiver keeps that arrival log and verifies each object against it, so
    a fingerprint index that claims a match for content the far side never
    received shows up as a *lost chunk*, not as silent corruption.
    """

    def __init__(self) -> None:
        # fingerprint -> owned payload bytes (None for descriptor-only
        # traces).  The receiver stores `chunk.payload` (owned bytes), not
        # the zero-copy view: a memoryview would pin the chunk's entire
        # parent object payload for the receiver's lifetime, making retained
        # memory scale with total traffic instead of unique content.
        self._store: Dict[bytes, Optional[bytes]] = {}
        self.objects_checked = 0
        self.objects_exact = 0
        self.chunks_checked = 0
        self.chunks_lost = 0

    def receive(
        self, obj: TraceObject, result: Optional[ObjectCompressionResult]
    ) -> Tuple[bool, int]:
        """Reassemble one object; returns ``(byte_exact, chunks_lost)``.

        ``result=None`` is the pass-through path: every chunk crossed the
        wire literally, so reconstruction is trivially exact.  The literal
        chunks are still harvested into the dedup store — exactly as real
        optimizers opportunistically index pass-through traffic — which
        also keeps references resolvable when a *partially applied* insert
        batch left fingerprints in the index just before the object
        degraded (the far side has those bytes: they crossed raw).
        """
        self.objects_checked += 1
        if result is None:
            for chunk in obj.chunks:
                if chunk.fingerprint not in self._store:
                    self._store[chunk.fingerprint] = chunk.payload
            self.objects_exact += 1
            return True, 0
        lost = 0
        pieces: List[Optional[bytes]] = []
        for chunk, matched in zip(obj.chunks, result.matched_flags):
            self.chunks_checked += 1
            if matched:
                if chunk.fingerprint in self._store:
                    pieces.append(self._store[chunk.fingerprint])
                else:
                    lost += 1
                    pieces.append(None)
            else:
                self._store[chunk.fingerprint] = chunk.payload
                pieces.append(chunk.payload)
        exact = lost == 0
        if exact and all(piece is not None for piece in pieces):
            # Real-payload traces: check the reassembled bytes, not just the
            # fingerprint bookkeeping.  The original side joins the chunks'
            # zero-copy views transiently (one copy per object, never per
            # chunk); the reassembled side joins the receiver's owned bytes.
            original = b"".join(chunk.raw for chunk in obj.chunks)
            exact = b"".join(pieces) == original  # type: ignore[arg-type]
        self.chunks_lost += lost
        if exact:
            self.objects_exact += 1
        return exact, lost


class MultiBranchTopology:
    """N branch offices sharing one data-center fingerprint index.

    Parameters
    ----------
    num_branches:
        Branch offices to provision (each gets its own clock and link).
    link_mbps:
        WAN bandwidth of every branch's link.
    index:
        The shared fingerprint index.  ``None`` builds a
        :class:`ClusterService` from ``num_shards`` / ``replication_factor``
        / ``config`` / ``storage``; passing an existing index (e.g. a single
        :class:`~repro.core.clam.CLAM`) yields the degenerate one-box
        deployment the equivalence tests compare against.
    num_shards / replication_factor / config / storage:
        Cluster construction knobs (ignored when ``index`` is given).
    with_content_cache:
        Keep the shared data-center content cache, a magnetic disk on the
        data-center clock; ``False`` drops it (index-only studies).
    reference_size:
        Per-branch engine knob (see :class:`CompressionEngine`).
    """

    def __init__(
        self,
        num_branches: int = 4,
        link_mbps: float = 100.0,
        index: Optional[FingerprintIndex] = None,
        num_shards: int = 4,
        replication_factor: int = 2,
        config=None,
        storage: str = "intel-ssd",
        with_content_cache: bool = True,
        reference_size: int = 40,
    ) -> None:
        if num_branches <= 0:
            raise ConfigurationError("num_branches must be positive")
        if index is None:
            index = ClusterService(
                num_shards=num_shards,
                config=config,
                storage=storage,
                replication_factor=replication_factor,
            )
        self.index = index
        self.dc_clock = SimulationClock()
        self.content_cache: Optional[ContentCache] = None
        if with_content_cache:
            self.content_cache = ContentCache(MagneticDisk(clock=self.dc_clock))
        self.receiver = DedupReceiver()
        self.branches: List[BranchOffice] = []
        for branch_index in range(num_branches):
            clock = SimulationClock()
            self.branches.append(
                BranchOffice(
                    branch_id=f"branch-{branch_index}",
                    clock=clock,
                    link=Link(bandwidth_mbps=link_mbps, clock=clock),
                    engine=CompressionEngine(
                        index=index,
                        content_cache=self.content_cache,
                        reference_size=reference_size,
                    ),
                )
            )
        #: Which branch first uploaded each fingerprint's literal bytes.
        self._first_uploader: Dict[bytes, str] = {}
        #: Runs every scheduled ``recover``; :meth:`fire_event` refuses an index that is no cluster.
        self._migrator = KeyMigrator(index)
        self.recovery_reports: List[MigrationReport] = []
        self.objects_total = 0
        self.objects_compressed = 0
        self.objects_pass_through = 0
        self.cross_branch_matched = 0
        self.intra_branch_matched = 0

    # -- The shared cluster, when there is one ------------------------------------------

    @property
    def cluster(self) -> ClusterService:
        """The shared index as a :class:`ClusterService` (or raise)."""
        if not isinstance(self.index, ClusterService):
            raise ConfigurationError(
                "this topology runs on a plain index, not a ClusterService"
            )
        return self.index

    def fire_event(self, event: FailureEvent) -> Optional[MigrationReport]:
        """Apply one scheduled fault action to the shared cluster.

        :func:`~repro.service.simulator.fire_failure_event`, with
        ``scale-out`` / ``scale-in`` refused before anything is recorded: a
        scale migration is stepped between requests, which only the traffic
        simulator does.
        """
        if event.action in ("scale-out", "scale-in"):
            raise ConfigurationError(f"a topology performs no {event.action!r} events")
        report = fire_failure_event(event, self.cluster, self._migrator)
        if report is not None:
            self.recovery_reports.append(report)
        return report

    # -- Object processing --------------------------------------------------------------

    def process_branch_object(self, branch: BranchOffice, obj: TraceObject) -> BranchObjectOutcome:
        """Run one object through one branch's engine, batched per object.

        A :class:`ShardUnavailableError` from the shared index (no live
        replica for some fingerprint) degrades the object to pass-through:
        the raw bytes cross the wire and nothing is deduplicated.  An insert
        batch that failed *partway* may still have left fingerprints on live
        shards; because the receiver harvests pass-through literals (and the
        upload is attributed below), a later match against those entries
        resolves instead of dangling.  The outcome carries dedup attribution
        (which matches crossed branches) and the receiver's reconstruction
        verdict.
        """
        self.objects_total += 1
        tracer = _trace.ACTIVE
        span = (
            tracer.begin(
                "branch.transfer",
                branch.clock,
                branch=branch.branch_id,
                object_id=obj.object_id,
            )
            if tracer is not None
            else None
        )
        try:
            return self._process_branch_object(branch, obj, span)
        finally:
            if span is not None:
                tracer.end(span, branch.clock)

    def _process_branch_object(
        self, branch: BranchOffice, obj: TraceObject, span
    ) -> BranchObjectOutcome:
        try:
            result = branch.engine.process_object_batched(obj, clock=branch.clock)
        except ShardUnavailableError:
            if span is not None:
                span.attributes["pass_through"] = True
            branch.pass_through_objects += 1
            self.objects_pass_through += 1
            for chunk in obj.chunks:
                self._first_uploader.setdefault(chunk.fingerprint, branch.branch_id)
            exact, lost = self.receiver.receive(obj, None)
            return BranchObjectOutcome(
                branch=branch,
                obj=obj,
                result=None,
                wire_bytes=obj.size_bytes,
                reconstructed_exactly=exact,
                chunks_lost=lost,
            )
        self.objects_compressed += 1
        cross = 0
        for chunk, matched in zip(obj.chunks, result.matched_flags):
            if matched:
                uploader = self._first_uploader.get(chunk.fingerprint)
                if uploader is None or uploader != branch.branch_id:
                    cross += 1
                    self.cross_branch_matched += 1
                else:
                    self.intra_branch_matched += 1
            else:
                self._first_uploader.setdefault(chunk.fingerprint, branch.branch_id)
        exact, lost = self.receiver.receive(obj, result)
        return BranchObjectOutcome(
            branch=branch,
            obj=obj,
            result=result,
            wire_bytes=result.compressed_bytes,
            cross_branch_matched=cross,
            reconstructed_exactly=exact,
            chunks_lost=lost,
        )

    # -- Reporting ----------------------------------------------------------------------

    @property
    def availability(self) -> float:
        """Fraction of objects the optimizer compressed (vs degraded).

        The same completed-over-issued contract as
        :attr:`repro.service.simulator.TrafficReport.availability`: a
        pass-through is the optimizer failing its request and falling back,
        so RF >= 2 deployments must hold this at 1.0 through a single shard
        crash while RF = 1 deployments dip.
        """
        if self.objects_total == 0:
            return 1.0
        return self.objects_compressed / self.objects_total

    def describe(self) -> Dict[str, float]:
        """Summary counters for tables and benchmark JSON."""
        return {
            "branches": float(len(self.branches)),
            "objects_total": float(self.objects_total),
            "objects_compressed": float(self.objects_compressed),
            "objects_pass_through": float(self.objects_pass_through),
            "availability": self.availability,
            "cross_branch_matched": float(self.cross_branch_matched),
            "intra_branch_matched": float(self.intra_branch_matched),
            "chunks_lost": float(self.receiver.chunks_lost),
            "objects_reconstructed_exactly": float(self.receiver.objects_exact),
        }
