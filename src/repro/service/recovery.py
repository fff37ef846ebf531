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
2. **Route around** — every dead shard leaves the ring and the cluster in one
   membership change (:meth:`KeyMigrator.start_recovery`).  The preference
   list is a prefix-stable chain (see :meth:`ShardRouter.preference_list`), so
   the arcs whose list changed are exactly those that contained a dead shard,
   and each gains the next distinct successors.
3. **Re-replicate** — the removal is a migration like any scale-in
   (:mod:`repro.service.rebalance`): each changed arc is seeded by scanning
   its surviving old owners and streamed to the shards that newly joined its
   preference list, with hinted handoff for a new owner that cannot take it.

Progress and outcome are captured in a :class:`RecoveryReport` and surfaced
through :meth:`~repro.service.cluster.ClusterStats.health`.  No one lists
the keys of an arc whose replicas all died, so that loss is reported as key
space, ``lost_fraction`` — zero with ``replication_factor >= 2`` unless that
many replicas died at once, the condition ``benchmarks/bench_failover.py``
asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.recovery import CrashRecoveryReport
from repro.service.cluster import ClusterService
from repro.service.rebalance import KeyMigrator
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
    #: Keys the surviving old owners' scans found in the changed arcs.
    keys_affected: int = 0
    #: Affected keys whose replication was restored on the survivors.
    keys_re_replicated: int = 0
    #: Individual (key, shard) copies written while re-replicating.
    copies_written: int = 0
    #: Affected keys no surviving replica returned a value for.
    keys_lost: int = 0
    #: Share of the key space whose replicas all failed, so no scan found it.
    lost_fraction: float = 0.0
    #: Exact ring handoff recorded when each failed shard was removed.
    handoffs: List[HandoffStats] = field(default_factory=list)
    #: Keys each surviving shard gained during re-replication.
    keys_gained: Dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """Whether every affected key and every arc kept at least one copy."""
        return self.keys_lost == 0 and self.lost_fraction == 0


class RecoveryCoordinator:
    """Detects failed shards and restores replication on the survivors.

    Detection reads the cluster's error counters and recovery drives the
    cluster's membership through :attr:`migrator`, so a coordinator can be
    created on demand (the traffic simulator does exactly that for scheduled
    ``recover`` events).
    """

    def __init__(self, cluster: ClusterService) -> None:
        self.cluster = cluster
        #: The migrator each pass streams through.  A pass whose surviving
        #: owner stops answering stalls with its migration installed; once
        #: that shard heals, ``migrator.run_to_completion()`` finishes it.
        self.migrator = KeyMigrator(cluster)
        #: Every report produced by this coordinator, oldest first.
        self.reports: List[RecoveryReport] = []

    def detect(self) -> Tuple[str, ...]:
        """Shards whose error counters crossed the failure threshold."""
        return self.cluster.down_shard_ids

    def recover(self) -> RecoveryReport:
        """Take :meth:`detect`'s shards off the ring and re-replicate what they owned.

        Returns the :class:`RecoveryReport`; also records it on the
        coordinator and as the cluster's ``last_recovery``.
        """
        cluster = self.cluster
        migrator = self.migrator
        failed = self.detect()
        report = RecoveryReport(
            failed_shards=failed,
            replication_factor=cluster.replication_factor,
            started_ms=cluster.clock.now_ms,
        )
        started_busy_ms = cluster.clock.busy_ms
        if failed:
            report.handoffs = migrator.start_recovery(failed)
            report.keys_affected = migrator.run_to_completion().keys_seeded
            report.keys_lost = migrator.keys_lost
            report.lost_fraction = migrator.lost_fraction
            report.keys_re_replicated = report.keys_affected - report.keys_lost
            report.keys_gained = dict(migrator.keys_gained)
            report.copies_written = sum(report.keys_gained.values())
        report.duration_ms = cluster.clock.now_ms - report.started_ms
        report.work_ms = cluster.clock.busy_ms - started_busy_ms
        self._log(report)
        return report

    def reopen_and_rejoin(self) -> Dict[str, CrashRecoveryReport]:
        """Recover power-cut persistent shards *in place* instead of removing them.

        The cheap path for a cluster on ``storage="persistent"``: a shard
        that lost power still has every acknowledged write on its backing
        file, so instead of taking it off the ring and re-replicating its
        whole key range (:meth:`recover`), each of :meth:`detect`'s shards is
        reopened — running the CLAM crash-recovery scan — and rejoins at its
        old ring position, with only the writes it missed while down replayed
        from the hinted-handoff log.  Replication of DRAM-buffered writes lost
        in the cut is restored lazily by read-repair.

        Returns each shard's :class:`~repro.core.recovery.CrashRecoveryReport`.
        """
        cluster = self.cluster
        reports: Dict[str, CrashRecoveryReport] = {}
        for shard_id in self.detect():
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
                lost_fraction=report.lost_fraction,
                duration_ms=report.duration_ms,
            )
