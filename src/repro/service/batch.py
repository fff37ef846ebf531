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

from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.errors import (
    ConfigurationError,
    DeviceFailedError,
    ShardUnavailableError,
    WireProtocolError,
    WorkerStalledError,
)
from repro.core.hashing import KeyDigest, KeyLike, as_digest, ring_position
from repro.service import wire
from repro.telemetry import trace as _trace
from repro.workloads.workload import Operation, OpKind

#: Simulated cost of handing one sub-batch (or one stand-alone operation) to a
#: shard: argument marshalling, queueing, the request/response hop.  Batching
#: amortises this across every operation in the sub-batch.
DEFAULT_DISPATCH_OVERHEAD_MS = 0.02

#: Simulated front-end cost of routing a single key (one ring lookup).
DEFAULT_ROUTING_COST_MS = 0.0002

#: Bound once: a member read off the enum class resolves through its
#: metaclass, and the routing and gather loops compare kinds once per key.
_LOOKUP, _INSERT, _DELETE = OpKind.LOOKUP, OpKind.INSERT, OpKind.DELETE


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


#: The fields of :class:`ShardBatchStats` that add up when one shard serves
#: two sub-batches of a batch (all of them but the name).
_SUMMED_FIELDS = tuple(f.name for f in fields(ShardBatchStats) if f.name != "shard_id")


def batch_columns(operations: Iterable[Operation]) -> Tuple[list, list, list]:
    """A batch of operations as the parallel columns the executor holds it
    in: kinds, keys, values."""
    submitted = list(operations)
    return (
        [operation.kind for operation in submitted],
        [operation.key for operation in submitted],
        [operation.value for operation in submitted],
    )


class _Placement(NamedTuple):
    """How every operation of one batch with the same replicas (and the same
    side of lookup/write) is dispatched in its first round — decided once."""

    #: The placement, in preference order (fixed for the batch).
    replicas: Tuple[str, ...]
    #: The first live replica: a lookup is sent to it alone, a write to every
    #: live replica, and its record is the one the write returns.
    primary: str
    #: The sub-batch (batch positions, in submission order) of each replica
    #: dispatched to.
    members: List[List[int]]
    #: Writes only: unavailable replicas, hinted for every key.
    down: Sequence[str]


class _Retry:
    """Retry state of one (operation, replica) unit a round left behind: by a
    miss on ``shard_id``, or (``failed``) by ``shard_id`` not running it."""

    __slots__ = ("index", "attempted", "missed", "failed", "primary")

    def __init__(self, index: int, shard_id: str, primary: bool, failed: bool) -> None:
        self.index = index
        self.attempted: Set[str] = {shard_id}
        #: Lookups only: live replicas that answered "not found" (repair targets).
        self.missed: List[str] = [] if failed else [shard_id]
        #: Left behind by a failed (or hedged-around) shard in the last round.
        self.failed = failed
        #: Writes only: this unit's record is the one returned when it ran.
        self.primary = primary


#: What one shard is sent in one round: batch positions, and the retry state
#: each carries — ``None`` in the first round, when no unit has any.
_SubBatch = Tuple[List[int], Optional[List[_Retry]]]
_NO_RETRIES = repeat(None)


class _Run:
    """One batch while it executes: a column per field with an entry per
    operation, and what the round in progress has set aside so far."""

    __slots__ = ("kinds", "keys", "values", "placement", "batch", "again", "repairs")

    def __init__(self, kinds, keys: List[KeyDigest], values, batch: BatchResult) -> None:
        self.kinds, self.keys, self.values, self.batch = kinds, keys, values, batch
        #: Filled by routing; fixed for the batch.
        self.placement: List[_Placement] = []
        #: Units the round left behind, in the order it did.
        self.again: List[_Retry] = []
        #: ``(shard, key, value)`` read repairs owed once the round is in.
        self.repairs: List[Tuple[str, KeyDigest, bytes]] = []


class BatchExecutor:
    """Routes a batch by shard and runs the per-shard sub-batches of one cluster.

    Replica semantics — stated here once, because every client read and write
    of the cluster (single operations included) goes through this class:

    * Placement is the key's preference list, or — while a migration is
      moving its arc — the old-then-new owner union ``cluster.migration``
      answers with.  Only shards the cluster's live view (``cluster.is_live``)
      admits are dispatched to.
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

    A batch is held as columns (kinds, key digests, values, placement) and a
    sub-batch is a list of positions in them: an (operation, replica) unit
    that completes on the first shard it is sent to — nearly all of them —
    never has an object of its own.  Retry state (:class:`_Retry`: replicas
    tried, replicas that missed, whether a shard left it behind, whether its
    record is the primary's) comes into being at the moment a unit is left
    behind — a miss with another replica to try, a shard that failed or
    truncated its answer, a fired hedge — with the values it would have
    accumulated by then, and later rounds carry it beside the position.

    Parameters
    ----------
    cluster:
        The :class:`~repro.service.cluster.ClusterService` whose shards, live
        view, placement, hints and health counters the batch runs against.
        ``cluster.shards`` is looked up live on every batch.
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

    def __init__(self, cluster, hedge_delay_ms: Optional[float] = None) -> None:
        if hedge_delay_ms is not None and hedge_delay_ms <= 0:
            raise ConfigurationError("hedge_delay_ms must be positive (or None to disable)")
        self.cluster = cluster
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
        if kind is not _LOOKUP:
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
        return self.execute_columns(*batch_columns(operations))

    def execute_columns(
        self, kinds: Sequence[OpKind], keys: Sequence[KeyLike], values: Sequence[bytes]
    ) -> BatchResult:
        """:meth:`execute` for a batch already held as parallel columns."""
        batch = BatchResult(results=[None] * len(kinds))
        if not kinds:
            return batch
        # The key digest computed for routing rides along with the operation
        # so the shard reuses it instead of re-hashing.
        digests = [key if type(key) is KeyDigest else as_digest(key) for key in keys]
        run = _Run(kinds, digests, values, batch)
        try:
            groups = self._route(run)
            while groups:
                self._dispatch_round(groups, run)
                groups = self._reroute(run)
        except ShardUnavailableError as error:
            # Operations the batch already applied are on shards; hand their
            # result records to the caller (an in-flight migration must queue
            # applied writes even when the batch fails).
            error.partial_results = batch.results
            raise

        batch.dispatch_ms_unbatched = DEFAULT_DISPATCH_OVERHEAD_MS * len(kinds)
        batch.makespan_ms = max(
            (stats.total_ms for stats in batch.per_shard.values()), default=0.0
        )
        return batch

    def _route(self, run: _Run) -> Dict[str, _SubBatch]:
        """Route the whole batch up front: the first round's sub-batches.

        Submission order is preserved within each shard (same key -> same
        replica set, so per-key order is preserved).  Nothing is dispatched
        while routing, so neither the live view nor a migration's arc states
        can change under it: what to do with a replica tuple is decided at
        its first operation and reused for the rest of the batch.
        """
        cluster = self.cluster
        migration = cluster.migration
        preference_at = cluster.router.preference_at
        copies = cluster.replication_factor
        place = run.placement.append
        groups: Dict[str, _SubBatch] = {}
        lookup_plans: Dict[Tuple[str, ...], _Placement] = {}
        write_plans: Dict[Tuple[str, ...], _Placement] = {}
        for index, (kind, key) in enumerate(zip(run.kinds, run.keys)):
            if migration is not None:
                replicas = migration.replicas_for(key)
            else:
                position = key.ring
                if position is None:
                    position = ring_position(key)
                replicas = preference_at(position, copies)
            plans = lookup_plans if kind is _LOOKUP else write_plans
            plan = plans.get(replicas)
            if plan is None:
                targets = self._targets(key, kind, replicas, ())
                down: Sequence[str] = ()
                if kind is _LOOKUP:
                    del targets[1:]
                else:
                    down = [shard_id for shard_id in replicas if shard_id not in targets]
                members = [groups.setdefault(shard_id, ([], None))[0] for shard_id in targets]
                plan = plans[replicas] = _Placement(replicas, targets[0], members, down)
            else:
                for shard_id in plan.down:
                    cluster._record_hint(shard_id, key)
            place(plan)
            for positions in plan.members:
                positions.append(index)
        return groups

    def _dispatch_round(self, groups: Dict[str, _SubBatch], run: _Run) -> None:
        """One scatter/gather round; ``run.again`` is left holding the units
        that need another replica.

        Every sub-batch is sent before any answer is read, so worker processes
        execute concurrently and a round's wall-clock cost is the slowest
        shard, not the sum (an in-process shard runs its sub-batch when its
        answer is gathered).  Read repairs wait until the whole round is in:
        a repair is a directed operation on a shard that may still have this
        round's frame in flight.
        """
        shards = self.cluster.shards
        kinds, keys, values = run.kinds, run.keys, run.values
        run.again, run.repairs = [], []
        in_flight = []
        for shard_id, sub_batch in groups.items():
            positions, retries = sub_batch
            for retry in retries or ():
                retry.attempted.add(shard_id)
            stats = ShardBatchStats(
                shard_id=shard_id,
                dispatch_ms=DEFAULT_DISPATCH_OVERHEAD_MS,
                routing_ms=DEFAULT_ROUTING_COST_MS * len(positions),
            )
            shard = shards.get(shard_id)  # None: removed between routing and now
            try:
                if shard is None:
                    raise DeviceFailedError(f"shard {shard_id!r} has no instance")
                shard.send_batch(
                    [(kinds[index], keys[index], values[index]) for index in positions],
                    stats.dispatch_ms + stats.routing_ms,
                )
            except DeviceFailedError:
                self._leave_behind(shard_id, sub_batch, 0, run, shard_failed=True)
                continue
            in_flight.append((shard_id, shard, sub_batch, stats))

        for shard_id, shard, sub_batch, stats in in_flight:
            size = len(sub_batch[0])
            tracer = _trace.ACTIVE
            span = (
                tracer.begin("shard.batch", shard.clock, shard=shard_id, operations=size)
                if tracer is not None
                else None
            )
            completed = None
            try:
                completed = self._gather(shard_id, shard, sub_batch, stats, run)
            finally:
                # The span must close on *every* exit, or every span the next
                # operation opens would be parented under a dead branch.
                if span is not None:
                    if completed != size:
                        span.attributes["failed"] = True
                        if completed is not None:
                            span.attributes["operations_completed"] = completed
                    tracer.end(span, shard.clock)
        for shard_id, key, value in run.repairs:
            self.cluster._read_repair(shard_id, key, value)

    def _gather(self, shard_id: str, shard, sub_batch: _SubBatch, stats, run: _Run) -> int:
        """Fold one shard's answer into the batch; returns how many units ran."""
        positions, retries = sub_batch
        hedge_ms = self._hedge_window(shard_id, sub_batch, run)
        try:
            answers, error_code, message, busy_ms = shard.recv_batch(hedge_ms)
        except DeviceFailedError as error:
            # Missing the hedge window is slow, not dead: the shard is
            # abandoned without being marked failed.  Anything else died
            # mid-batch.  Either way there is no answer: none of its units ran.
            hedged = hedge_ms is not None and isinstance(error, WorkerStalledError)
            if hedged:
                size = len(positions)
                self.cluster._record_rpc_event("hedge_fired", shard=shard_id, operations=size)
            self._leave_behind(shard_id, sub_batch, 0, run, shard_failed=not hedged)
            return 0
        if error_code == wire.ERR_UNEXPECTED:
            raise WireProtocolError(f"shard {shard_id}: {message}")
        kinds, placement, results, again = run.kinds, run.placement, run.batch.results, run.again
        lookups = hits = inserts = updates = deletes = flash_reads = flash_writes = 0
        for index, retry, result in zip(positions, retries or _NO_RETRIES, answers):
            kind = kinds[index]
            if kind is _LOOKUP:
                lookups += 1
                flash_reads += result.flash_reads
                if result.value is not None:
                    hits += 1
                    results[index] = result
                    for stale in retry.missed if retry is not None else ():
                        run.repairs.append((stale, run.keys[index], result.value))
                    continue
                if results[index] is None:
                    results[index] = result
                # A miss with another replica to try is left behind for it.
                if retry is None:
                    if len(placement[index].replicas) > 1:
                        again.append(_Retry(index, shard_id, primary=True, failed=False))
                else:
                    retry.missed.append(shard_id)
                    if len(retry.attempted) < len(placement[index].replicas):
                        again.append(retry)
                continue
            if kind is _DELETE:
                deletes += 1
            else:
                if kind is _INSERT:
                    inserts += 1
                else:
                    updates += 1
                flash_reads += result.flash_reads
                flash_writes += result.flash_writes
            # A replica's record stands in for a failed primary's.
            primary = placement[index].primary == shard_id if retry is None else retry.primary
            if primary or results[index] is None:
                results[index] = result
        stats.busy_ms = busy_ms
        stats.operations = len(answers)
        stats.lookups, stats.lookup_hits = lookups, hits
        stats.inserts, stats.updates, stats.deletes = inserts, updates, deletes
        stats.flash_reads, stats.flash_writes = flash_reads, flash_writes
        if error_code == wire.ERR_DEVICE_FAILED or len(answers) < len(positions):
            self._leave_behind(shard_id, sub_batch, len(answers), run, shard_failed=True)
        self._merge_shard_stats(run.batch, stats)
        return len(answers)

    def _hedge_window(self, shard_id: str, sub_batch: _SubBatch, run: _Run) -> Optional[float]:
        """The hedge window for one sub-batch, or None when it is not hedged
        (see ``hedge_delay_ms`` in the class docstring for the rule)."""
        cluster = self.cluster
        if (
            self.hedge_delay_ms is None
            or cluster.replication_factor < 2
            or run.batch.operations < 2
        ):
            return None
        positions, retries = sub_batch
        for index, retry in zip(positions, retries or _NO_RETRIES):
            attempted = (shard_id,) if retry is None else retry.attempted
            if run.kinds[index] is not _LOOKUP or not any(
                replica not in attempted and cluster.is_live(replica)
                for replica in run.placement[index].replicas
            ):
                return None
        return self.hedge_delay_ms

    def _leave_behind(
        self, shard_id: str, sub_batch: _SubBatch, start: int, run: _Run, shard_failed: bool
    ) -> None:
        """``shard_id`` did not run its units from ``start`` on: mark their
        retry state failed — creating it for a first-round sub-batch, whose
        units carried none until now — and, when the shard failed rather than
        was hedged around, count the error and hint the writes."""
        positions, retries = sub_batch
        if retries is None:
            placement = run.placement
            left = [
                _Retry(index, shard_id, placement[index].primary == shard_id, failed=True)
                for index in positions[start:]
            ]
        else:
            left = retries[start:]
            for retry in left:
                retry.failed = True
        if shard_failed:
            cluster = self.cluster
            cluster.record_shard_error(shard_id)
            for retry in left:
                # This shard's copy of each unfinished write is lost until a
                # heal replays it or recovery re-replicates the key.
                if run.kinds[retry.index] is not _LOOKUP:
                    cluster._record_hint(shard_id, run.keys[retry.index])
            if shard_id not in run.batch.failed_shards:
                run.batch.failed_shards.append(shard_id)
        run.again.extend(left)

    def _reroute(self, run: _Run) -> Dict[str, _SubBatch]:
        """Move left-behind operations and missed lookups to their next replica."""
        is_live = self.cluster.is_live
        batch = run.batch
        groups: Dict[str, _SubBatch] = {}
        for retry in sorted(run.again, key=lambda r: r.index):
            index = retry.index
            kind = run.kinds[index]
            replicas = run.placement[index].replicas
            if batch.results[index] is None:
                target = self._targets(run.keys[index], kind, replicas, retry.attempted)[0]
            elif kind is not _LOOKUP:
                continue  # a surviving replica applied the write; the lost copy is hinted
            else:
                # Holding a miss: read through to the next live replica, and
                # let the miss stand when there is none.
                target = next(
                    (s for s in replicas if s not in retry.attempted and is_live(s)), None
                )
                if target is None:
                    continue
            if retry.failed:
                retry.failed = False
                batch.retried_operations += 1
            positions, retries = groups.setdefault(target, ([], []))
            positions.append(index)
            retries.append(retry)
        return groups

    def _merge_shard_stats(self, batch: BatchResult, stats: ShardBatchStats) -> None:
        existing = batch.per_shard.get(stats.shard_id)
        if existing is None:
            batch.per_shard[stats.shard_id] = stats
        else:
            for name in _SUMMED_FIELDS:
                setattr(existing, name, getattr(existing, name) + getattr(stats, name))
        batch.busy_ms += stats.busy_ms
        batch.dispatch_ms += stats.dispatch_ms
        batch.routing_ms += stats.routing_ms
