"""Batched execution of hash operations against a sharded CLAM fleet.

Client-facing services rarely dispatch one index operation at a time: they
collect a batch, route it, and hand each shard its sub-batch in one dispatch.
:class:`BatchExecutor` models exactly that, and it is the *only* path by
which a :class:`~repro.service.cluster.ClusterService` reads or writes on
behalf of a client — a single ``insert``/``lookup`` is a batch of one.
Grouping by shard preserves per-key order and each shard's simulated device
is deterministic, so batching changes the *accounting*, not the results: the
fixed dispatch overhead is paid once per shard sub-batch instead of once per
operation, and the batch completes when the slowest shard finishes — shards
run in parallel on independent clocks.

The multi-branch WAN optimizer is the canonical client: each branch office's
compression engine sends one ``lookup_batch`` and one ``insert_batch`` round
trip per object, so a whole object's fingerprints cost one dispatch per
touched shard rather than one per chunk, and the branch's wait is the
:attr:`BatchResult.makespan_ms` across parallel shards rather than the
serial sum.

Shards are reached through the interface of :mod:`repro.service.shard`
only, so the same scatter/gather loop drives in-process shards and worker
processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.errors import (
    ConfigurationError,
    DeviceFailedError,
    ShardUnavailableError,
    WireProtocolError,
    WorkerStalledError,
)
from repro.core.hashing import KeyDigest, KeyLike, as_digest
from repro.service import wire
from repro.telemetry import trace as _trace
from repro.workloads.workload import Operation, OpKind

#: Simulated cost of handing one sub-batch (or one stand-alone operation) to a
#: shard: argument marshalling, queueing, the request/response hop.  Batching
#: amortises this across every operation in the sub-batch.
DEFAULT_DISPATCH_OVERHEAD_MS = 0.02

#: Simulated front-end cost of routing a single key (one ring lookup).
DEFAULT_ROUTING_COST_MS = 0.0002


@dataclass
class ShardBatchStats:
    """What one shard did for one batch."""

    shard_id: str
    operations: int = 0
    lookups: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    lookup_hits: int = 0
    busy_ms: float = 0.0
    dispatch_ms: float = 0.0
    routing_ms: float = 0.0
    flash_reads: int = 0
    flash_writes: int = 0

    @property
    def total_ms(self) -> float:
        """Completion time for the sub-batch (routing + dispatch + work)."""
        return self.busy_ms + self.dispatch_ms + self.routing_ms


@dataclass
class BatchResult:
    """Outcome of one batch: per-op results plus the latency breakdown."""

    #: Result records in the original submission order (LookupResult,
    #: InsertResult or DeleteResult depending on each operation's kind).
    #: With replication, a write's record comes from its primary replica
    #: (falling back to the first surviving replica if the primary failed).
    results: List[object] = field(default_factory=list)
    per_shard: Dict[str, ShardBatchStats] = field(default_factory=dict)
    #: Time spent routing keys, charged to each owning shard's clock so that
    #: clock-derived durations and makespans share one time base.
    routing_ms: float = 0.0
    #: Dispatch overhead actually paid (once per shard sub-batch dispatched).
    dispatch_ms: float = 0.0
    #: Dispatch overhead the same operations would have paid unbatched.
    dispatch_ms_unbatched: float = 0.0
    #: Total shard-side work (sum over shards), excluding routing/dispatch.
    busy_ms: float = 0.0
    #: Batch completion time: the slowest shard's sub-batch, all costs in.
    makespan_ms: float = 0.0
    #: Shards that raised DeviceFailedError while executing this batch.
    failed_shards: List[str] = field(default_factory=list)
    #: Operations re-dispatched to another replica after a shard failure.
    retried_operations: int = 0

    @property
    def operations(self) -> int:
        """Number of operations in the batch."""
        return len(self.results)

    @property
    def shards_touched(self) -> int:
        """Number of distinct shards this batch dispatched to."""
        return len(self.per_shard)

    @property
    def dispatch_saved_ms(self) -> float:
        """Dispatch overhead amortised away relative to unbatched execution."""
        return self.dispatch_ms_unbatched - self.dispatch_ms




@dataclass
class _Slot:
    """One (operation, replica) execution unit inside a batch."""

    index: int
    operation: Operation
    key: KeyLike
    #: The operation's placement, in preference order (fixed for the batch).
    replicas: Tuple[str, ...]
    #: Writes only: this replica's record is the one returned when it ran.
    primary: bool
    attempted: Set[str] = field(default_factory=set)
    #: Lookups only: live replicas that answered "not found" (repair targets).
    missed: List[str] = field(default_factory=list)
    #: Left behind by a failed (or hedged-around) shard in the last round.
    failed: bool = False


class BatchExecutor:
    """Routes a batch by shard and runs the per-shard sub-batches of one cluster.

    Replica semantics — stated here once, because every client read and write
    of the cluster (single operations included) goes through this class:

    * Placement is ``cluster._op_replicas(key, kind)``: the key's preference
      list, or the old-then-new owner union while a migration is moving its
      arc.  Only shards the cluster's live view (``cluster.is_live``) admits
      are dispatched to.
    * A **write** goes to every live replica.  The record returned is the
      primary's, or the first surviving replica's when the primary failed.
      Every replica that was down, or failed before applying the write, gets
      a hinted-handoff entry (``cluster._record_hint``).
    * A **lookup** is answered by the first live replica that hits, in
      preference order.  Earlier live replicas that missed are repaired — the
      value is re-inserted once the round's answers are all in — and counted
      in ``cluster.read_repairs``.  A miss is returned (the first replica's
      record) only when every live replica missed.  With one replica, and on
      a clean hit, no extra probe is made.  Repair work is charged to the
      repaired shard's clock but not to the batch's makespan.  (A read-through
      probe runs after the round that missed, so it sees the writes that
      round applied to the key on the next replica.)
    * A shard that raises :class:`~repro.core.errors.DeviceFailedError`
      (a dead worker included) is reported through
      ``cluster.record_shard_error`` and the operations it left behind move
      to the next live replica not yet tried; a write some replica already
      applied is not retried.  Only an operation with no live replica left
      raises :class:`~repro.core.errors.ShardUnavailableError`.

    Parameters
    ----------
    cluster:
        The :class:`~repro.service.cluster.ClusterService` whose shards, live
        view, placement, hints and health counters the batch runs against.
        ``cluster.shards`` is looked up live on every batch.
    dispatch_overhead_ms / routing_cost_ms:
        Fixed simulated costs, charged to each touched shard's clock so every
        duration in the system derives from the same time line.
    hedge_delay_ms:
        With ``replication_factor >= 2``, an all-lookup sub-batch of a
        multi-operation batch waits only this long for its shard; on a miss
        the shard is abandoned *without* being marked failed (slow is not
        dead) and the lookups move to the next replica, the late answer being
        discarded by sequence number.  Only sub-batches whose every lookup
        has such a replica are hedged.  A one-operation batch always takes the
        full deadline path, which is what detects a stalled worker.  In-process
        shards never stall, so the window only matters to worker processes.
    """

    def __init__(
        self,
        cluster,
        dispatch_overhead_ms: float = DEFAULT_DISPATCH_OVERHEAD_MS,
        routing_cost_ms: float = DEFAULT_ROUTING_COST_MS,
        hedge_delay_ms: Optional[float] = None,
    ) -> None:
        if dispatch_overhead_ms < 0 or routing_cost_ms < 0:
            raise ConfigurationError("overhead costs must be non-negative")
        if hedge_delay_ms is not None and hedge_delay_ms <= 0:
            raise ConfigurationError("hedge_delay_ms must be positive (or None to disable)")
        self.cluster = cluster
        self.dispatch_overhead_ms = dispatch_overhead_ms
        self.routing_cost_ms = routing_cost_ms
        self.hedge_delay_ms = hedge_delay_ms

    def _targets(
        self, key: KeyLike, kind: OpKind, replicas: Tuple[str, ...], attempted
    ) -> List[str]:
        """Live replicas one operation has not tried yet, in preference order.

        Hints every unavailable replica of a write, and raises
        :class:`ShardUnavailableError` (never a bare ``KeyError`` for a shard
        removed mid-flight) when nothing is left.
        """
        is_live = self.cluster.is_live
        live = [s for s in replicas if s not in attempted and is_live(s)]
        if kind is not OpKind.LOOKUP:
            for shard_id in replicas:
                if shard_id not in live and shard_id not in attempted:
                    self.cluster._record_hint(shard_id, key)
        if not live:
            raise ShardUnavailableError(
                f"no live replica remains for a {kind.value} operation "
                f"(placement {replicas!r}, down {self.cluster.down_shard_ids!r})"
            )
        return live

    def execute(self, operations: Iterable[Operation]) -> BatchResult:
        """Execute ``operations`` as one batch and return the breakdown."""
        submitted = list(operations)
        batch = BatchResult(results=[None] * len(submitted))
        if not submitted:
            return batch

        # Route the whole batch up front, preserving submission order within
        # each shard (same key -> same replica set, so per-key order is
        # preserved).  The key digest computed for routing rides along with
        # the operation so the shard reuses it instead of re-hashing.
        cluster = self.cluster
        try:
            groups: Dict[str, List[_Slot]] = {}
            for index, operation in enumerate(submitted):
                kind = operation.kind
                key = operation.key
                key = key if type(key) is KeyDigest else as_digest(key)
                replicas = cluster._op_replicas(key, kind)
                targets = self._targets(key, kind, replicas, ())
                if kind is OpKind.LOOKUP:
                    del targets[1:]
                for role, shard_id in enumerate(targets):
                    groups.setdefault(shard_id, []).append(
                        _Slot(index, operation, key, replicas, primary=role == 0)
                    )

            while groups:
                groups = self._reroute(self._dispatch_round(groups, batch), batch)
        except ShardUnavailableError as error:
            # Operations the batch already applied are on shards; hand their
            # result records to the caller (the cluster's key catalog must
            # learn about applied writes even when the batch fails).
            error.partial_results = batch.results
            raise

        batch.dispatch_ms_unbatched = self.dispatch_overhead_ms * len(submitted)
        batch.makespan_ms = max(
            (stats.total_ms for stats in batch.per_shard.values()), default=0.0
        )
        return batch

    def _dispatch_round(self, groups: Dict[str, List[_Slot]], batch: BatchResult) -> List[_Slot]:
        """One scatter/gather round; returns the slots that need another replica.

        Every sub-batch is sent before any answer is read, so worker processes
        execute concurrently and a round's wall-clock cost is the slowest
        shard, not the sum (an in-process shard runs its sub-batch when its
        answer is gathered).  Read repairs wait until the whole round is in:
        a repair is a directed operation on a shard that may still have this
        round's frame in flight.
        """
        shards = self.cluster.shards
        again: List[_Slot] = []
        in_flight = []
        for shard_id, slots in groups.items():
            for slot in slots:
                slot.attempted.add(shard_id)
            stats = ShardBatchStats(
                shard_id=shard_id,
                dispatch_ms=self.dispatch_overhead_ms,
                routing_ms=self.routing_cost_ms * len(slots),
            )
            shard = shards.get(shard_id)  # None: removed between routing and now
            try:
                if shard is None:
                    raise DeviceFailedError(f"shard {shard_id!r} has no instance")
                shard.send_batch(
                    [(slot.operation.kind, slot.key, slot.operation.value) for slot in slots],
                    stats.dispatch_ms + stats.routing_ms,
                )
            except DeviceFailedError:
                self._fail(shard_id, slots, batch, again)
                continue
            in_flight.append((shard_id, shard, slots, stats))

        repairs: List[Tuple[str, KeyLike, bytes]] = []
        for shard_id, shard, slots, stats in in_flight:
            tracer = _trace.ACTIVE
            span = (
                tracer.begin("shard.batch", shard.clock, shard=shard_id, operations=len(slots))
                if tracer is not None
                else None
            )
            completed = None
            try:
                completed = self._gather(shard_id, shard, slots, stats, batch, again, repairs)
            finally:
                # The span must close on *every* exit, or every span the next
                # operation opens would be parented under a dead branch.
                if span is not None:
                    if completed != len(slots):
                        span.attributes["failed"] = True
                        if completed is not None:
                            span.attributes["operations_completed"] = completed
                    tracer.end(span, shard.clock)
        for shard_id, key, value in repairs:
            self.cluster._read_repair(shard_id, key, value)
        return again

    def _gather(
        self,
        shard_id: str,
        shard,
        slots: List[_Slot],
        stats: ShardBatchStats,
        batch: BatchResult,
        again: List[_Slot],
        repairs: List[Tuple[str, KeyLike, bytes]],
    ) -> int:
        """Fold one shard's answer into the batch; returns how many slots ran."""
        hedge_ms = self._hedge_window(slots, batch)
        try:
            results, error_code, message, busy_ms = shard.recv_batch(hedge_ms)
        except DeviceFailedError as error:
            if hedge_ms is not None and isinstance(error, WorkerStalledError):
                # Slow, not dead: abandon the shard without marking it failed.
                self.cluster._record_rpc_event("hedge_fired", shard=shard_id, operations=len(slots))
                for slot in slots:
                    slot.failed = True
                again.extend(slots)
            else:  # died mid-batch: no answer, so none of its slots ran
                self._fail(shard_id, slots, batch, again)
            return 0
        if error_code == wire.ERR_UNEXPECTED:
            raise WireProtocolError(f"shard {shard_id}: {message}")
        stats.busy_ms = busy_ms
        stats.operations = len(results)
        for slot, result in zip(slots, results):
            kind = slot.operation.kind
            _count(stats, kind, result)
            if kind is not OpKind.LOOKUP:
                # A replica's record stands in for a failed primary's.
                if slot.primary or batch.results[slot.index] is None:
                    batch.results[slot.index] = result
            elif result.found:
                batch.results[slot.index] = result
                for stale in slot.missed:
                    repairs.append((stale, slot.key, result.value))
            else:
                if batch.results[slot.index] is None:
                    batch.results[slot.index] = result
                slot.missed.append(shard_id)
                if len(slot.attempted) < len(slot.replicas):
                    again.append(slot)  # another replica may still hold it
        if error_code == wire.ERR_DEVICE_FAILED or len(results) < len(slots):
            self._fail(shard_id, slots[len(results) :], batch, again)
        self._merge_shard_stats(batch, stats)
        return len(results)

    def _hedge_window(self, slots: List[_Slot], batch: BatchResult) -> Optional[float]:
        """The hedge window for one sub-batch, or None when it is not hedged
        (see ``hedge_delay_ms`` in the class docstring for the rule)."""
        cluster = self.cluster
        if self.hedge_delay_ms is None or cluster.replication_factor < 2 or batch.operations < 2:
            return None
        for slot in slots:
            if slot.operation.kind is not OpKind.LOOKUP or not any(
                replica not in slot.attempted and cluster.is_live(replica)
                for replica in slot.replicas
            ):
                return None
        return self.hedge_delay_ms

    def _fail(
        self, shard_id: str, slots: List[_Slot], batch: BatchResult, again: List[_Slot]
    ) -> None:
        """A shard failed with ``slots`` not run: count it, hint the writes."""
        self.cluster.record_shard_error(shard_id)
        for slot in slots:
            slot.failed = True
            # This shard's copy of each unfinished write is lost until a heal
            # replays it or recovery re-replicates the key.
            if slot.operation.kind is not OpKind.LOOKUP:
                self.cluster._record_hint(shard_id, slot.key)
        if shard_id not in batch.failed_shards:
            batch.failed_shards.append(shard_id)
        again.extend(slots)

    def _reroute(self, slots: List[_Slot], batch: BatchResult) -> Dict[str, List[_Slot]]:
        """Move left-behind operations and missed lookups to their next replica."""
        is_live = self.cluster.is_live
        groups: Dict[str, List[_Slot]] = {}
        for slot in sorted(slots, key=lambda s: s.index):
            kind = slot.operation.kind
            if batch.results[slot.index] is None:
                target = self._targets(slot.key, kind, slot.replicas, slot.attempted)[0]
            elif kind is not OpKind.LOOKUP:
                continue  # a surviving replica applied the write; the lost copy is hinted
            else:
                # Holding a miss: read through to the next live replica, and
                # let the miss stand when there is none.
                target = next(
                    (s for s in slot.replicas if s not in slot.attempted and is_live(s)), None
                )
                if target is None:
                    continue
            if slot.failed:
                slot.failed = False
                batch.retried_operations += 1
            groups.setdefault(target, []).append(slot)
        return groups

    def _merge_shard_stats(self, batch: BatchResult, stats: ShardBatchStats) -> None:
        existing = batch.per_shard.get(stats.shard_id)
        if existing is None:
            batch.per_shard[stats.shard_id] = stats
        else:
            for field_name in (
                "operations",
                "lookups",
                "inserts",
                "updates",
                "deletes",
                "lookup_hits",
                "busy_ms",
                "dispatch_ms",
                "routing_ms",
                "flash_reads",
                "flash_writes",
            ):
                merged = getattr(existing, field_name) + getattr(stats, field_name)
                setattr(existing, field_name, merged)
        batch.busy_ms += stats.busy_ms
        batch.dispatch_ms += stats.dispatch_ms
        batch.routing_ms += stats.routing_ms


def _count(stats: ShardBatchStats, kind: OpKind, result) -> None:
    if kind is OpKind.LOOKUP:
        stats.lookups += 1
        if result.found:
            stats.lookup_hits += 1
    elif kind is OpKind.INSERT:
        stats.inserts += 1
    elif kind is OpKind.UPDATE:
        stats.updates += 1
    elif kind is OpKind.DELETE:
        stats.deletes += 1
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown operation kind {kind!r}")
    stats.flash_reads += getattr(result, "flash_reads", 0)
    stats.flash_writes += getattr(result, "flash_writes", 0)
