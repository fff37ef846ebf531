"""Failure detection and re-replication for a replicated CLAM cluster.

When a shard of a :class:`~repro.service.cluster.ClusterService` crash-stops
(see :mod:`repro.flashsim.faults`), the replicated read/write paths keep
serving from the surviving replicas, but the cluster is left *under-
replicated*: every key whose preference list contained the dead shard now has
one copy fewer than ``replication_factor`` demands.  The
:class:`RecoveryCoordinator` closes that gap:

1. **Detect** — shards whose :class:`~repro.core.errors.DeviceFailedError`
   counters crossed the cluster's ``failure_threshold`` are reported down
   (:meth:`ClusterService.down_shard_ids`).
2. **Route around** — the dead shard is removed from the ring
   (:meth:`ShardRouter.remove_shard`), which yields the *exact* handoff arcs:
   every arc the dead shard owned is gained by a ring successor, so the set
   of keys that need work is precisely the set whose preference list
   contained the dead shard (the preference list is a prefix-stable chain;
   see :meth:`ShardRouter.preference_list`).
3. **Re-replicate** — for each affected key the coordinator reads the value
   from a surviving replica and writes it to the shards that newly joined
   the key's preference list, restoring full replication on the survivors.

Progress and outcome are captured in a :class:`RecoveryReport` and surfaced
through :meth:`~repro.service.cluster.ClusterStats.health`.  A key is *lost*
only when no surviving replica holds it — impossible for keys written with
``replication_factor >= 2`` unless that many replicas died at once, and the
condition ``keys_lost == 0`` is exactly what ``benchmarks/bench_failover.py``
asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.recovery import CrashRecoveryReport
from repro.service.cluster import ClusterService
from repro.service.router import HandoffStats


@dataclass
class RecoveryReport:
    """Outcome of one recovery pass over a set of failed shards."""

    #: Shards taken off the ring by this pass.
    failed_shards: Tuple[str, ...] = ()
    replication_factor: int = 1
    #: Cluster time when the pass started / total simulated time it took.
    started_ms: float = 0.0
    duration_ms: float = 0.0
    #: Total simulated shard-side work the pass performed (sum over shard
    #: clocks, :attr:`ClockEnsemble.busy_ms` delta) — nonzero even when the
    #: re-replication ran entirely on shards behind the cluster-time frontier.
    work_ms: float = 0.0
    #: Tracked keys examined for membership in a dead shard's replica set.
    keys_scanned: int = 0
    #: Keys whose preference list contained a failed shard.
    keys_affected: int = 0
    #: Affected keys whose replication was restored on the survivors.
    keys_re_replicated: int = 0
    #: Individual (key, shard) copies written while re-replicating.
    copies_written: int = 0
    #: Affected keys no surviving replica held (0 whenever the replication
    #: factor exceeded the number of simultaneous failures).
    keys_lost: int = 0
    #: Exact ring handoff recorded when each failed shard was removed.
    handoffs: List[HandoffStats] = field(default_factory=list)
    #: Keys each surviving shard gained during re-replication.
    keys_gained: Dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """Whether every affected key kept at least one copy."""
        return self.keys_lost == 0


class RecoveryCoordinator:
    """Detects failed shards and restores replication on the survivors.

    The coordinator is deliberately stateless between passes apart from the
    report log: detection reads the cluster's error counters, and recovery
    drives the cluster's own membership and shard APIs, so it can be created
    on demand (the traffic simulator does exactly that for scheduled
    ``recover`` events).
    """

    def __init__(self, cluster: ClusterService) -> None:
        self.cluster = cluster
        #: Every report produced by this coordinator, oldest first.
        self.reports: List[RecoveryReport] = []

    def detect(self) -> Tuple[str, ...]:
        """Shards whose error counters crossed the failure threshold."""
        return self.cluster.down_shard_ids

    def recover(self, shard_ids: Optional[Iterable[str]] = None) -> RecoveryReport:
        """Take failed shards off the ring and re-replicate what they owned.

        ``shard_ids`` defaults to :meth:`detect`'s findings.  Returns the
        :class:`RecoveryReport`; also records it on the coordinator and as
        the cluster's ``last_recovery``.
        """
        cluster = self.cluster
        failed = tuple(shard_ids) if shard_ids is not None else self.detect()
        report = RecoveryReport(
            failed_shards=failed,
            replication_factor=cluster.replication_factor,
            started_ms=cluster.clock.now_ms,
        )
        started_busy_ms = cluster.clock.busy_ms
        if not failed:
            self._log(report)
            return report
        for shard_id in failed:
            if shard_id not in cluster.shards:
                raise ConfigurationError(f"shard {shard_id!r} not present")
        tracked = cluster.tracked_keys
        if tracked is None:
            raise ConfigurationError(
                "recovery needs the cluster's key catalog; construct the "
                "ClusterService with track_keys=True (on by default when "
                "replication_factor > 1)"
            )

        # Snapshot each tracked key's replica set *before* the ring changes:
        # the keys needing work are exactly those whose preference list
        # contained a failed shard.
        failed_set = set(failed)
        rf = cluster.replication_factor
        affected: List[Tuple[bytes, Tuple[str, ...]]] = []
        for key in sorted(tracked):
            report.keys_scanned += 1
            old_replicas = cluster.router.preference_list(key, rf)
            if failed_set.intersection(old_replicas):
                affected.append((key, old_replicas))
        report.keys_affected = len(affected)

        # Route around the dead shards: removing them from the ring hands
        # their arcs to ring successors, with the exact moved fractions
        # recorded per removal.
        for shard_id in failed:
            report.handoffs.append(cluster.remove_shard(shard_id))

        # Re-replicate: the preference list is a prefix-stable chain, so the
        # post-removal list is the old one minus the dead shards plus the
        # next distinct successors — precisely the shards that must receive
        # a copy.
        for key, old_replicas in affected:
            # The failed shards just left ``cluster.shards``, so the walk
            # skips them like any other shard that is not live.
            _answered, value = cluster._first_live_copy(key, old_replicas)
            if value is None:
                report.keys_lost += 1
                continue
            new_members = [
                shard_id
                for shard_id in cluster.router.preference_list(key, rf)
                if shard_id not in old_replicas and cluster.is_live(shard_id)
            ]
            copied = 0
            for shard_id in new_members:
                if self._write_copy(shard_id, key, value):
                    copied += 1
                    report.keys_gained[shard_id] = report.keys_gained.get(shard_id, 0) + 1
            report.copies_written += copied
            report.keys_re_replicated += 1

        report.duration_ms = cluster.clock.now_ms - report.started_ms
        report.work_ms = cluster.clock.busy_ms - started_busy_ms
        self._log(report)
        return report

    def reopen_and_rejoin(
        self, shard_ids: Optional[Iterable[str]] = None
    ) -> Dict[str, CrashRecoveryReport]:
        """Recover power-cut persistent shards *in place* instead of removing them.

        The cheap path for a cluster on ``storage="persistent"``: a shard
        that lost power still has every acknowledged write on its backing
        file, so instead of taking it off the ring and re-replicating its
        whole key range (:meth:`recover`), each failed shard is reopened —
        running the CLAM crash-recovery scan — and rejoins at its old ring
        position, with only the writes it missed while down replayed from the
        hinted-handoff log.  Replication of DRAM-buffered writes lost in the
        cut is restored lazily by read-repair.

        ``shard_ids`` defaults to :meth:`detect`'s findings.  Returns each
        shard's :class:`~repro.core.recovery.CrashRecoveryReport`.
        """
        cluster = self.cluster
        failed = tuple(shard_ids) if shard_ids is not None else self.detect()
        reports: Dict[str, CrashRecoveryReport] = {}
        for shard_id in failed:
            reports[shard_id] = cluster.reopen_shard(shard_id)
        if reports:
            cluster.recoveries += 1
            cluster.events.record(
                "reopen_rejoin",
                shards=list(reports),
                entries_rebuilt=sum(r.entries_rebuilt for r in reports.values()),
                log_records_replayed=sum(r.log_records_replayed for r in reports.values()),
            )
        return reports

    # -- Shard-level plumbing ------------------------------------------------------------

    def _write_copy(self, shard_id: str, key: bytes, value: bytes) -> bool:
        """Install one replica copy; False if the target failed mid-write."""
        return self.cluster._shard_op(shard_id, "insert", key, value) is not None

    def _log(self, report: RecoveryReport) -> None:
        self.reports.append(report)
        cluster = self.cluster
        cluster.last_recovery = report
        if report.failed_shards:
            cluster.recoveries += 1
            cluster.events.record(
                "recovery",
                shards=list(report.failed_shards),
                keys_re_replicated=report.keys_re_replicated,
                copies_written=report.copies_written,
                keys_lost=report.keys_lost,
                duration_ms=report.duration_ms,
            )
