"""A fleet of CLAM shards behind a single hash-table facade.

:class:`ClusterService` composes N independent :class:`~repro.core.clam.CLAM`
instances — each with its own simulated device and clock — behind the exact
``insert``/``lookup``/``update``/``delete`` interface of a single CLAM
(:class:`repro.workloads.runner.HashIndex`), so every existing driver (the
workload runner, the baselines harness, the benchmarks) can operate a whole
cluster unchanged.  Keys are placed by a consistent-hash
:class:`~repro.service.router.ShardRouter`; every client read and write — a
single operation is a batch of one — goes through the
:class:`~repro.service.batch.BatchExecutor`, which reaches each shard through
the interface of :mod:`repro.service.shard`; cluster time is the
:class:`~repro.flashsim.clock.ClockEnsemble` view over the shard clocks
(parallel shards: elapsed time is the slowest member).

With ``replication_factor=N`` the cluster tolerates shard failures: every
write lands on the key's N-shard preference list
(:meth:`~repro.service.router.ShardRouter.preference_list`), reads are served
by the first live replica that hits, with read-repair of those that missed
(the executor's docstring states the replica semantics), shards that throw
:class:`~repro.core.errors.DeviceFailedError` (see
:mod:`repro.flashsim.faults`) are marked down after ``failure_threshold``
errors and routed around, and the
:class:`~repro.service.recovery.RecoveryCoordinator` takes dead shards out of
the cluster and re-replicates what they owned onto the survivors, as a
:class:`~repro.service.rebalance.KeyMigrator` migration.

:class:`ClusterStats` merges the cheap per-instance counters
(:meth:`repro.core.clam.CLAM.counters`) across the fleet: flash/DRAM I/O,
flush/eviction counts, hit rates, plus load-balance measures (hottest shard,
imbalance factor) and the fleet's failure/recovery health
(:meth:`ClusterStats.health`).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.recovery import CrashRecoveryReport
from repro.core.config import CLAMConfig
from repro.core.errors import (
    ClusterCloseError,
    ConfigurationError,
    DeviceFailedError,
    ShardUnavailableError,
)
from repro.core.hashing import KeyLike, key_data
from repro.core.results import DeleteResult, InsertResult, LookupResult
from repro.flashsim.clock import ClockEnsemble
from repro.service.batch import (
    DEFAULT_DISPATCH_OVERHEAD_MS,
    DEFAULT_ROUTING_COST_MS,
    BatchExecutor,
    BatchResult,
    batch_columns,
)
from repro.service.router import HandoffStats, ShardRouter
from repro.service.shard import LocalShard
from repro.telemetry import trace as _trace
from repro.telemetry.events import EventLog
from repro.telemetry.export import build_snapshot
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.workload import Operation, OpKind


def imbalance_factor(loads: Iterable[float]) -> float:
    """Hottest load over the mean load (1.0 = perfectly balanced or idle)."""
    loads = list(loads)
    total = sum(loads)
    if not loads or total == 0:
        return 1.0
    return max(loads) / (total / len(loads))


class ClusterStats:
    """Merged statistics over every shard of a :class:`ClusterService`."""

    def __init__(
        self, shards: Dict[str, LocalShard], service: Optional["ClusterService"] = None
    ) -> None:
        self._shards = shards
        self._service = service

    def per_shard(self) -> Dict[str, Dict[str, float]]:
        """Each shard's cheap counter snapshot (see :meth:`CLAM.counters`).

        A shard whose counters cannot be read — a dead worker, whose counts
        died with it — is left out, as :meth:`ClusterService.shard_registries`
        leaves out its registry.
        """
        snapshots: Dict[str, Dict[str, float]] = {}
        for shard_id, shard in self._shards.items():
            try:
                snapshots[shard_id] = shard.counters()
            except DeviceFailedError:
                continue
        return snapshots

    def combined(self, per_shard: Optional[Dict[str, Dict[str, float]]] = None) -> Dict[str, float]:
        """Counter snapshot summed across shards.

        ``clock_ms`` and the latency maxima are combined with ``max`` (shards
        run in parallel); every other counter is additive.  Pass an existing
        :meth:`per_shard` snapshot to avoid polling the fleet again.
        """
        merged: Dict[str, float] = {}
        max_keys = {"clock_ms", "lookup_latency_max_ms", "insert_latency_max_ms"}
        if per_shard is None:
            per_shard = self.per_shard()
        for counters in per_shard.values():
            for key, value in counters.items():
                if key in max_keys:
                    merged[key] = max(merged.get(key, 0.0), value)
                else:
                    merged[key] = merged.get(key, 0.0) + value
        return merged

    def operations_per_shard(
        self, per_shard: Optional[Dict[str, Dict[str, float]]] = None
    ) -> Dict[str, float]:
        """Hash operations each shard has served: every lookup, insert and
        delete its CLAM ran, client, repair, hint and migration work alike."""
        if per_shard is None:
            per_shard = self.per_shard()
        return {
            shard_id: counters["lookups"] + counters["inserts"] + counters["deletes"]
            for shard_id, counters in per_shard.items()
        }

    def imbalance_factor(
        self, per_shard: Optional[Dict[str, Dict[str, float]]] = None
    ) -> float:
        """Hottest shard's load over the mean load (1.0 = perfectly balanced)."""
        return imbalance_factor(self.operations_per_shard(per_shard).values())

    def health(self) -> Dict[str, object]:
        """Failure-handling view of the fleet: liveness, errors, recovery.

        Requires the stats object to be attached to a :class:`ClusterService`
        (the service constructs it that way); the merged counters above work
        on a bare shard mapping too.
        """
        service = self._service
        if service is None:
            raise ConfigurationError("health() needs stats attached to a ClusterService")
        last = service.last_recovery
        # The event log is the ground truth for failure *history*: the live
        # sets above only describe the present, so a shard that went down and
        # was healed mid-run would otherwise be indistinguishable from one
        # that never failed.
        ever_down: Set[str] = set()
        healed: Set[str] = set()
        down_now: Set[str] = set()
        for event in service.events:
            shard = event.attributes.get("shard")
            if event.kind == "shard_down":
                ever_down.add(shard)
                down_now.add(shard)
            elif event.kind == "shard_healed" and shard in down_now:
                down_now.discard(shard)
                healed.add(shard)
        return {
            "replication_factor": service.replication_factor,
            "live_shards": list(service.live_shard_ids),
            "down_shards": list(service.down_shard_ids),
            "shard_errors": dict(service.shard_errors),
            "read_repairs": service.read_repairs,
            "hinted_handoffs": service.hinted_handoffs,
            "recoveries": service.recoveries,
            "keys_re_replicated": last.keys_re_replicated if last is not None else 0,
            "last_recovery_ms": last.duration_ms if last is not None else 0.0,
            "shards_ever_down": sorted(ever_down),
            "healed_shards": sorted(healed),
            "shards_never_failed": sorted(
                shard for shard in service.live_shard_ids if shard not in ever_down
            ),
        }


class ClusterService:
    """N CLAM shards behind the single-index ``HashIndex`` interface.

    Parameters
    ----------
    num_shards:
        Number of shards to create, named ``shard-0`` .. ``shard-{N-1}``.
    config:
        Per-shard :class:`CLAMConfig` (each shard gets the full config; size
        the buffers accordingly).  Defaults to :meth:`CLAMConfig.scaled`.
    storage:
        Storage profile name used for every shard's private device, or
        ``"persistent"`` to build each shard as a
        :class:`~repro.core.recovery.DurableCLAM` on a file-backed device
        under ``data_dir`` (one ``<shard_id>.clam`` file per shard).
        Persistent shards survive power cuts: see :meth:`fail_shard`'s
        ``"power-cut"`` mode and :meth:`reopen_shard`.
    data_dir:
        Directory holding the shard files when ``storage="persistent"``
        (created if missing; required for that storage, rejected otherwise).
    virtual_nodes:
        Consistent-hash virtual nodes per shard.
    replication_factor:
        Copies of every key, placed on the key's preference list
        (:meth:`ShardRouter.preference_list`).  With 1 (the default) the
        cluster behaves exactly like the pre-replication service; with N>=2 a
        shard can crash without losing keys (see
        :mod:`repro.service.recovery`).
    failure_threshold:
        :class:`~repro.core.errors.DeviceFailedError` count at which a shard
        is marked down and routed around.
    """

    #: Hedged-read window handed to the executor.  Only the process-per-shard
    #: deployment sets it: an in-process shard's answer never stalls.
    hedge_delay_ms: Optional[float] = None

    def __init__(
        self,
        num_shards: int = 4,
        config: Optional[CLAMConfig] = None,
        storage: str = "intel-ssd",
        virtual_nodes: int = 64,
        replication_factor: int = 1,
        failure_threshold: int = 1,
        data_dir: Optional[str] = None,
    ) -> None:
        if num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        names = [f"shard-{index}" for index in range(num_shards)]
        if replication_factor < 1:
            raise ConfigurationError("replication_factor must be at least 1")
        if replication_factor > len(names):
            raise ConfigurationError(
                f"replication_factor {replication_factor} exceeds the "
                f"{len(names)} shards available"
            )
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be at least 1")
        self.config = config if config is not None else CLAMConfig.scaled()
        self.storage = storage
        if storage == "persistent":
            if data_dir is None:
                raise ConfigurationError(
                    'storage="persistent" needs a data_dir for the shard files'
                )
            os.makedirs(data_dir, exist_ok=True)
        elif data_dir is not None:
            raise ConfigurationError(
                f'data_dir is only meaningful with storage="persistent", not {storage!r}'
            )
        self.data_dir = data_dir
        self.replication_factor = replication_factor
        self.failure_threshold = failure_threshold
        #: Shard id -> shard, each satisfying :mod:`repro.service.shard`.
        self.shards: Dict[str, LocalShard] = {}
        self.clock = ClockEnsemble()
        #: Structured record of membership/failure/recovery transitions,
        #: stamped on the cluster clock.  Always on — these events are rare.
        self.events = EventLog(clock=self.clock)
        #: Cluster-level metrics (request counters, liveness gauges); the
        #: per-shard registries live with the shards.  ``None`` when
        #: ``config.telemetry_enabled`` is off.
        self.telemetry: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.config.telemetry_enabled else None
        )
        # Failure-handling state: cumulative DeviceFailedError counts and the
        # set of shards currently considered down (still on the ring until a
        # recovery decommissions or a heal revives them).
        self._errors: Dict[str, int] = {}
        self._down: Set[str] = set()
        # Hinted handoff: keys each unavailable replica missed a write or
        # delete for, replayed (from the live replicas' current state) when
        # the shard is healed.  Without this, a replica that sits *after* the
        # serving one in the preference list would come back stale forever —
        # read-repair only fixes replicas a lookup actually probes.
        self._hints: Dict[str, Set[bytes]] = {}
        self.read_repairs = 0
        self.hinted_handoffs = 0
        self.recoveries = 0
        #: In-flight :class:`~repro.service.rebalance.MigrationState`, installed
        #: by a :class:`~repro.service.rebalance.KeyMigrator` while an online
        #: scale-out/scale-in is moving key-range arcs.  While set, the
        #: executor places every read/write by its ``replicas_for`` so arcs
        #: being moved are double-read (old owners first) and dual-written;
        #: ``None`` costs one attribute check per batch.
        self.migration = None
        #: Most recent :class:`~repro.service.recovery.RecoveryReport`.
        self.last_recovery = None
        #: Most recent :class:`~repro.service.batch.BatchResult` produced by
        #: :meth:`execute_batch` (and therefore by :meth:`lookup_batch` /
        #: :meth:`insert_batch`).  Lets callers that only see per-operation
        #: result lists — e.g. the WAN optimizer's batched compression
        #: engine — recover the round trip's makespan across parallel shards.
        self.last_batch: Optional[BatchResult] = None
        for name in names:
            self._build_shard(name)
        self.router = ShardRouter(names, virtual_nodes=virtual_nodes)
        self.executor = BatchExecutor(self, hedge_delay_ms=self.hedge_delay_ms)
        self.stats = ClusterStats(self.shards, service=self)

    def shard_path(self, shard_id: str) -> str:
        """Backing file of a persistent shard."""
        if self.data_dir is None:
            raise ConfigurationError("cluster has no data_dir (not persistent storage)")
        return os.path.join(self.data_dir, f"{shard_id}.clam")

    def _make_shard(self, shard_id: str) -> LocalShard:
        """How a shard is built — the one thing a deployment overrides (the
        process-per-shard cluster returns a worker proxy instead)."""
        return LocalShard(shard_id, *self._shard_spec(shard_id))

    def _shard_spec(self, shard_id: str) -> tuple:
        """What a :class:`LocalShard` is built from, here or in a worker."""
        data_path = self.shard_path(shard_id) if self.storage == "persistent" else None
        return (self.config, self.storage, data_path)

    def _build_shard(self, shard_id: str) -> LocalShard:
        if shard_id in self.shards:
            raise ConfigurationError(f"shard {shard_id!r} already exists")
        shard = self._make_shard(shard_id)
        self.shards[shard_id] = shard
        self.clock.add(shard.clock)
        return shard

    def _retire_shard(self, shard_id: str, retire: Callable[[LocalShard], None]) -> None:
        """Drop one shard instance (``retire`` closes or kills it) and its errors."""
        old = self.shards.pop(shard_id)
        self.clock.remove(old.clock)
        retire(old)
        self._errors.pop(shard_id, None)
        self._down.discard(shard_id)

    # -- Liveness and failure accounting ------------------------------------------------

    @property
    def live_shard_ids(self) -> Tuple[str, ...]:
        """Shards currently serving (on the ring, instantiated, not down)."""
        return tuple(s for s in self.router.shard_ids if self.is_live(s))

    @property
    def down_shard_ids(self) -> Tuple[str, ...]:
        """Shards marked down by the error counters (candidates for recovery)."""
        return tuple(sorted(self._down))

    @property
    def shard_errors(self) -> Dict[str, int]:
        """Cumulative :class:`DeviceFailedError` count per shard."""
        return dict(self._errors)

    def is_live(self, shard_id: str) -> bool:
        """Whether ``shard_id`` can serve operations right now.

        The *live view* every routing decision goes through: a shard must be
        instantiated (present in :attr:`shards` — guarding against a shard
        removed mid-flight) and not marked down by the error counters.
        """
        return shard_id in self.shards and shard_id not in self._down

    def record_shard_error(self, shard_id: str) -> bool:
        """Count one device failure; returns True when the shard goes down."""
        count = self._errors.get(shard_id, 0) + 1
        self._errors[shard_id] = count
        if shard_id not in self._down and count >= self.failure_threshold:
            self._down.add(shard_id)
            self.events.record("shard_down", shard=shard_id, errors=count)
            return True
        return False

    def fail_shard(self, shard_id: str, mode: str = "crash", **fault_kwargs) -> None:
        """Inject a fault into every device of one shard.

        ``mode`` is ``"crash"`` (crash-stop), ``"io-errors"``
        (``error_rate=``, deterministic under the device seed), ``"degraded"``
        (``latency_multiplier=`` / ``extra_latency_ms=``) or ``"power-cut"``
        (``after_n_ios=N``: the shard's device loses power at its N-th
        subsequent page I/O, tearing whatever was in flight — meaningful on
        persistent shards, whose media survives for :meth:`reopen_shard`).
        Injection only plants the fault — the shard is *detected* as down via
        the error counters once operations start failing, exactly as a real
        cluster learns about a dead node.
        """
        if shard_id not in self.shards:
            raise ConfigurationError(f"shard {shard_id!r} not present")
        self.shards[shard_id].inject_fault(mode, fault_kwargs)
        self.events.record("failure_injected", shard=shard_id, mode=mode)

    def heal_shard(self, shard_id: str) -> None:
        """Clear faults and error state; the shard resumes serving.

        A healed shard kept its data but missed every write and delete issued
        while it was unavailable.  Those are replayed here from the hinted-
        handoff log before the shard rejoins: each hinted key's current value
        is read from the live replicas and installed (or, if the key was
        deleted meanwhile, deleted) on the healed shard, so it comes back
        neither missing recent keys nor serving stale values.  Read-repair
        on the lookup path remains as a second line of defence.
        """
        if shard_id not in self.shards:
            raise ConfigurationError(f"shard {shard_id!r} not present")
        was_down = shard_id in self._down
        self.shards[shard_id].heal()
        self._errors.pop(shard_id, None)
        self._down.discard(shard_id)
        self.events.record("shard_healed", shard=shard_id, was_down=was_down)
        self._replay_hints_for(shard_id)

    def _replay_hints_for(self, shard_id: str) -> int:
        """Replay the hinted-handoff log onto a shard that just rejoined.

        Shared by :meth:`heal_shard`, :meth:`reopen_shard` and the parallel
        cluster's worker restart; returns how many hints were replayed.
        """
        replayed_before = self.hinted_handoffs
        for key in sorted(self._hints.pop(shard_id, ())):
            self._replay_hint(shard_id, key)
        replayed = self.hinted_handoffs - replayed_before
        if replayed:
            self.events.record("hinted_handoff_replay", shard=shard_id, keys_replayed=replayed)
        return replayed

    def reopen_shard(self, shard_id: str) -> CrashRecoveryReport:
        """Reopen a power-cut persistent shard from its backing file.

        The dead :class:`~repro.core.recovery.DurableCLAM` is released and a
        fresh one opened on the same file, which runs the CLAM crash-recovery
        scan: acknowledged writes come back; DRAM-buffered ones are lost on
        this shard (with ``replication_factor >= 2`` the other replicas still
        hold them and read-repair restores this copy lazily).  Writes the
        shard missed *while marked down* are then replayed from the hinted-
        handoff log, exactly as :meth:`heal_shard` does, and the shard
        rejoins the ring without any re-replication sweep.

        Returns the shard's :class:`~repro.core.recovery.CrashRecoveryReport`.
        """
        if self.storage != "persistent":
            raise ConfigurationError(
                'reopen_shard needs storage="persistent"; '
                f"this cluster uses {self.storage!r}"
            )
        if shard_id not in self.shards:
            raise ConfigurationError(f"shard {shard_id!r} not present")
        self.events.record("crash_recovery_started", shard=shard_id)
        # close() releases the mapping; it skips flushing on a dead device.
        self._retire_shard(shard_id, lambda old: old.close())
        report = self._build_shard(shard_id).recovery_report
        assert isinstance(report, CrashRecoveryReport)  # the file existed
        self.events.record(
            "crash_recovery_completed",
            shard=shard_id,
            clean_shutdown=report.clean_shutdown,
            pages_scanned=report.pages_scanned,
            entries_rebuilt=report.entries_rebuilt,
            incarnations_from_checkpoint=report.incarnations_from_checkpoint,
            log_records_replayed=report.log_records_replayed,
            torn_pages_discarded=report.torn_pages_discarded,
            recovery_io_ms=report.recovery_io_ms,
        )
        self._replay_hints_for(shard_id)
        return report

    def _record_hint(self, shard_id: str, key: KeyLike) -> None:
        """Remember that ``shard_id`` missed a write/delete for ``key``."""
        if shard_id in self.shards:
            self._hints.setdefault(shard_id, set()).add(key_data(key))

    def _replay_hint(self, shard_id: str, key: bytes) -> None:
        """Bring one hinted key on a healed shard up to date.

        The authoritative state is whatever the other live replicas say right
        now: a found value is installed on the healed shard (overwriting any
        stale version it kept), a unanimous miss means the key was deleted
        while the shard was down, so the missed delete is applied.  If no
        other replica can answer, the hint is retained for the next heal.
        """
        replicas = self.router.preference_list(key, self.replication_factor)
        if shard_id not in replicas:
            return  # the ring changed; the healed shard no longer hosts this key
        answered, value = self._first_live_copy(
            key, [other_id for other_id in replicas if other_id != shard_id]
        )
        if value is not None:
            if self._shard_op(shard_id, "insert", key, value) is not None:
                self.hinted_handoffs += 1
        elif answered:
            # Every live replica misses: apply the delete this shard missed.
            if self._shard_op(shard_id, "delete", key) is not None:
                self.hinted_handoffs += 1
        else:
            self._hints.setdefault(shard_id, set()).add(key)

    # -- HashIndex interface ------------------------------------------------------------

    def shard_for(self, key: KeyLike) -> str:
        """Shard id that owns ``key`` (the primary replica)."""
        return self.router.route(key)

    def replicas_for(self, key: KeyLike) -> Tuple[str, ...]:
        """The key's full preference list (length ``replication_factor``)."""
        return self.router.preference_list(key, self.replication_factor)

    def _shard_op(self, shard_id: str, op_name: str, *args):
        """One *directed* operation against one shard; None if the shard fails.

        The primitive under hint replay, read repair and migration (recovery
        and key scans included) — work aimed at a specific shard rather than at a key's replicas
        (client reads and writes go through :meth:`execute_batch`).  Charges
        one dispatch + routing overhead to the shard's clock and folds any
        :class:`DeviceFailedError` into the error counters.
        """
        shard = self.shards[shard_id]
        shard.clock.advance(DEFAULT_DISPATCH_OVERHEAD_MS + DEFAULT_ROUTING_COST_MS)
        try:
            return getattr(shard, op_name)(*args)
        except DeviceFailedError:
            self.record_shard_error(shard_id)
            return None

    def _first_live_copy(
        self, key: KeyLike, shard_ids: Iterable[str]
    ) -> Tuple[bool, Optional[bytes]]:
        """Ask ``shard_ids`` in order for ``key``: ``(answered, value)``.

        The replica walk under hint replay and migration: down
        shards are skipped, one that fails mid-lookup is counted and skipped,
        and the walk stops at the first copy found.  ``answered`` tells a
        miss every asked shard agreed on from nobody having replied at all.
        """
        answered = False
        for shard_id in shard_ids:
            if not self.is_live(shard_id):
                continue
            result = self._shard_op(shard_id, "lookup", key)
            if result is None:
                continue
            if result.found:
                return True, result.value
            answered = True
        return answered, None

    def _read_repair(self, shard_id: str, key: KeyLike, value: bytes) -> bool:
        """Re-insert a value on a replica found to be missing it."""
        repaired = self._shard_op(shard_id, "insert", key, value) is not None
        if repaired:
            self.read_repairs += 1
        return repaired

    def _one(self, kind: OpKind, key: KeyLike, value: bytes = b""):
        """A single operation is a batch of one: same replica semantics, same
        clock charges (see :class:`~repro.service.batch.BatchExecutor`)."""
        return self._execute_columns([kind], [key], [value]).results[0]

    def insert(self, key: KeyLike, value: bytes) -> InsertResult:
        """Insert or update a (key, value) pair on every live replica."""
        return self._one(OpKind.INSERT, key, value)

    def update(self, key: KeyLike, value: bytes) -> InsertResult:
        """Lazy update (alias of insert), written to every live replica."""
        return self._one(OpKind.UPDATE, key, value)

    def lookup(self, key: KeyLike) -> LookupResult:
        """Look up a key on its replicas, with read-through and read-repair."""
        return self._one(OpKind.LOOKUP, key)

    def delete(self, key: KeyLike) -> DeleteResult:
        """Delete a key on every live replica."""
        return self._one(OpKind.DELETE, key)

    def get(self, key: KeyLike) -> Optional[bytes]:
        """Convenience accessor returning just the value (or ``None``)."""
        return self.lookup(key).value

    def __contains__(self, key: KeyLike) -> bool:
        return self.lookup(key).found

    # -- Batched interface --------------------------------------------------------------

    def execute_batch(self, operations: Iterable[Operation]) -> BatchResult:
        """Execute a batch of operations grouped by shard (see BatchExecutor)."""
        return self._execute_columns(*batch_columns(operations))

    def _execute_columns(self, kinds, keys, values) -> BatchResult:
        """One batch, as parallel columns, through the executor."""
        tracer = _trace.ACTIVE
        span = (
            tracer.begin("cluster.batch", self.clock, operations=len(kinds))
            if tracer is not None
            else None
        )
        try:
            batch = self.executor.execute_columns(kinds, keys, values)
        except ShardUnavailableError as error:
            # Writes applied before the failing operation are on shards: an
            # in-flight migration must queue them (the executor attaches them).
            self._note_writes(kinds, keys, error.partial_results)
            raise
        finally:
            if span is not None:
                tracer.end(span, self.clock)
        self._note_writes(kinds, keys, batch.results)
        self.last_batch = batch
        if span is not None:
            span.attributes["retried_operations"] = batch.retried_operations
        return batch

    def lookup_batch(self, keys: Iterable[KeyLike]) -> List[LookupResult]:
        """Look every key up in one batch fanned out across the shards.

        The batched half of :class:`repro.wanopt.engine.FingerprintIndex`:
        operations are grouped into per-shard sub-batches by the
        :class:`~repro.service.batch.BatchExecutor` (one dispatch per shard,
        replica failover included) and the per-key results come back in
        submission order.  The underlying :class:`BatchResult` — including
        the parallel-shard makespan — is left in :attr:`last_batch`.
        """
        keys = list(keys)
        kinds, values = [OpKind.LOOKUP] * len(keys), [b""] * len(keys)
        return list(self._execute_columns(kinds, keys, values).results)

    def insert_batch(self, items: Iterable[Tuple[KeyLike, bytes]]) -> List[InsertResult]:
        """Insert every ``(key, value)`` pair in one fanned-out batch."""
        items = list(items)
        keys, values = [key for key, _ in items], [value for _, value in items]
        return list(self._execute_columns([OpKind.INSERT] * len(items), keys, values).results)

    def _note_writes(self, kinds, keys, results: List[object]) -> None:
        """Queue a batch's applied writes on an in-flight migration's arcs."""
        if self.migration is None:
            return
        for kind, key, result in zip(kinds, keys, results):
            if result is not None and kind is not OpKind.LOOKUP:
                self.migration.note_write(key_data(key), kind is not OpKind.DELETE)

    # -- Membership ---------------------------------------------------------------------

    @property
    def shard_ids(self) -> Tuple[str, ...]:
        """Current shard names, sorted."""
        return self.router.shard_ids

    @property
    def num_shards(self) -> int:
        """Number of shards currently provisioned (live or down)."""
        return len(self.shards)

    def add_shard(self, shard_id: Optional[str] = None) -> HandoffStats:
        """Provision a new shard and return the key-range handoff it causes.

        The handoff stats describe the fraction of the key space whose owner
        changed (near ``1/(N+1)`` under consistent hashing).  No data moves:
        keys in those arcs stay on their old shards until re-inserted.  To
        join a shard *and* stream its key ranges onto it under live traffic,
        use :meth:`repro.service.rebalance.KeyMigrator.start_add` instead.
        """
        self._check_membership_frozen("add_shard")
        if shard_id is None:
            index = len(self.shards)
            while f"shard-{index}" in self.shards:
                index += 1
            shard_id = f"shard-{index}"
        self._build_shard(shard_id)
        handoff = self.router.add_shard(shard_id)
        self.events.record("shard_added", shard=shard_id)
        return handoff

    def remove_shard(self, shard_id: str) -> HandoffStats:
        """Decommission a shard and return the key-range handoff it causes.

        Used both for planned decommissions and by
        :meth:`repro.service.rebalance.KeyMigrator.start_recovery` to take a
        dead shard out before re-replicating its key ranges.  For a
        *graceful* decommission that streams the shard's data off first, use
        :meth:`repro.service.rebalance.KeyMigrator.start_remove` instead.
        """
        self._check_membership_frozen("remove_shard")
        # The router validates presence and refuses to drop the last shard
        # before mutating anything, so no duplicate guards are needed here.
        handoff = self.router.remove_shard(shard_id)
        self.decommission_shard(shard_id)
        return handoff

    def decommission_shard(self, shard_id: str) -> None:
        """Retire a shard *instance* that is no longer on the ring.

        The second half of :meth:`remove_shard`, split out so the online
        rebalancer can take a shard off the ring first (routing new traffic
        away) and release the instance only after its data has been streamed
        to the new owners.
        """
        if shard_id in self.router:
            raise ConfigurationError(
                f"shard {shard_id!r} is still on the ring; remove it from the router first"
            )
        self._retire_shard(shard_id, lambda shard: shard.close())
        self._hints.pop(shard_id, None)
        self.events.record("shard_removed", shard=shard_id)

    def _check_membership_frozen(self, operation: str) -> None:
        """Reject direct membership changes while a migration is in flight.

        One membership change at a time: the migrator's arc bookkeeping is
        computed against a fixed (old ring, new ring) pair, so a concurrent
        ``add_shard``/``remove_shard`` would silently invalidate it.  The
        migrator itself mutates the ring *before* installing
        :attr:`migration` (and clears it before decommissioning), so its own
        paths pass this check.
        """
        if self.migration is not None:
            raise ConfigurationError(
                f"{operation} rejected: cluster membership is frozen while a "
                "key migration is in flight (drain or abort it first)"
            )

    def close(self) -> None:
        """Cleanly close every shard (flush, checkpoint, unmap when persistent).

        Idempotent and exception-safe: *every* shard's close is attempted even
        when an earlier one raises — a failure on shard 2 of 5 must not leak
        shards 3-5's open file mappings — and the collected failures are
        raised once as a single :class:`~repro.core.errors.ClusterCloseError`.
        Makes ``ClusterService`` usable as a context manager so tests and
        benchmarks on ``storage="persistent"`` never leak file handles.
        """
        failures: List[Tuple[str, Exception]] = []
        for shard_id, shard in self.shards.items():
            try:
                shard.close()
            except Exception as error:
                failures.append((shard_id, error))
        if failures:
            raise ClusterCloseError(failures)

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- Reporting ----------------------------------------------------------------------

    def telemetry_snapshot(self, include_buckets: bool = True, tracer=None) -> Dict[str, object]:
        """The standard telemetry envelope for this cluster.

        ``registry`` in the result merges every shard's registry with the
        cluster-level one, ``per_shard`` keeps them separate (the per-shard
        percentile tables), and ``events`` is the always-on event log — so a
        telemetry-disabled cluster still yields a valid envelope with
        ``enabled: false`` and its failure history.  Pass a
        :class:`~repro.telemetry.Tracer` to embed its span trees.
        """
        if self.telemetry is not None:
            self.telemetry.gauge("live_shards").set(len(self.live_shard_ids))
            self.telemetry.gauge("down_shards").set(len(self.down_shard_ids))
        return build_snapshot(
            per_shard=self.shard_registries(),
            events=self.events,
            tracer=tracer,
            include_buckets=include_buckets,
            extra_registry=self.telemetry,
        )

    def shard_registries(self) -> Dict[str, MetricsRegistry]:
        """Each shard's metrics registry, read through the shard interface.

        An in-process shard hands back its live registry; a worker's is
        fetched over the wire and rebuilt mergeable (bucket-preserving, so
        merges stay bit-exact).  Shards without telemetry and dead workers —
        whose samples died with them, like a crashed server's scrape target —
        are left out.
        """
        registries: Dict[str, MetricsRegistry] = {}
        for shard_id, shard in self.shards.items():
            try:
                registry = shard.telemetry_registry()
            except DeviceFailedError:
                continue
            if registry is not None:
                registries[shard_id] = registry
        return registries

    def _record_rpc_event(self, kind: str, shard: str, **attributes) -> None:
        """One RPC-resilience event (``chaos_injected`` / ``rpc_timeout`` /
        ``rpc_retry`` / ``hedge_fired`` / ``worker_stalled``): logged to the
        EventLog and counted per shard.  Counters are created lazily, so a
        fault-free run registers nothing — keeping the chaos-off telemetry
        snapshot of a process-per-shard cluster bit-identical to this one's.
        """
        self.events.record(kind, shard=shard, **attributes)
        if self.telemetry is not None:
            self.telemetry.counter(f"rpc.{kind}").inc()
            self.telemetry.counter(f"rpc.{kind}.{shard}").inc()

    def throughput_ops_per_second(self, combined: Optional[Dict[str, float]] = None) -> float:
        """Cluster-wide hash operations per simulated (parallel) second.

        ``combined`` lets callers that already hold a
        :meth:`ClusterStats.combined` snapshot avoid polling the fleet again.
        """
        if combined is None:
            combined = self.stats.combined()
        total_ops = combined.get("lookups", 0.0) + combined.get("inserts", 0.0) + combined.get(
            "deletes", 0.0
        )
        elapsed_ms = self.clock.now_ms
        if elapsed_ms <= 0:
            return 0.0
        return total_ops / (elapsed_ms / 1000.0)

    def describe(self) -> Dict[str, float]:
        """Summary dictionary in the same spirit as :meth:`CLAM.describe`."""
        per_shard = self.stats.per_shard()
        combined = self.stats.combined(per_shard)
        lookups = combined.get("lookups", 0.0)
        inserts = combined.get("inserts", 0.0)
        summary = {
            "shards": float(self.num_shards),
            "live_shards": float(len(self.live_shard_ids)),
            "down_shards": float(len(self.down_shard_ids)),
            "replication_factor": float(self.replication_factor),
            "read_repairs": float(self.read_repairs),
            "lookups": lookups,
            "inserts": inserts,
            "mean_lookup_ms": (
                combined.get("lookup_latency_total_ms", 0.0) / lookups if lookups else 0.0
            ),
            "mean_insert_ms": (
                combined.get("insert_latency_total_ms", 0.0) / inserts if inserts else 0.0
            ),
            "lookup_success_rate": (
                combined.get("lookup_hits", 0.0) / lookups if lookups else 0.0
            ),
            "flushes": combined.get("flushes", 0.0),
            "evictions": combined.get("evictions", 0.0),
            "throughput_ops_per_s": self.throughput_ops_per_second(combined),
            "imbalance_factor": self.stats.imbalance_factor(per_shard),
            "clock_skew_ms": self.clock.skew_ms,
        }
        return summary
