#!/usr/bin/env python3
"""Replicated cluster surviving a shard crash: failover, read-repair, recovery.

Run with::

    python examples/failover_cluster.py

Demonstrates the fault-tolerance layer of ``repro.service``: replica
placement on the router's preference lists, device-level fault injection
(:mod:`repro.flashsim.faults`), reads and writes failing over to surviving
replicas, read-repair backfilling a healed shard, and the
:class:`~repro.service.recovery.RecoveryCoordinator` re-replicating a dead
shard's key ranges along the exact handoff arcs.
"""

from __future__ import annotations

from repro.core import CLAMConfig
from repro.service import ClusterService, RecoveryCoordinator
from repro.workloads import fingerprint_for


def config() -> CLAMConfig:
    return CLAMConfig.scaled(
        num_super_tables=16, buffer_capacity_items=128, incarnations_per_table=8
    )


def build_cluster() -> ClusterService:
    return ClusterService(num_shards=4, config=config(), replication_factor=2)


def replica_placement() -> ClusterService:
    """Every key lives on the first two distinct shards of its ring walk."""
    print("=== Replica placement (replication_factor=2) ===")
    cluster = build_cluster()
    for identifier in range(1_000):
        key = fingerprint_for(identifier)
        cluster.insert(key, b"chunk-%d" % identifier)
    key = fingerprint_for(0)
    replicas = cluster.replicas_for(key)
    print(f"key 0 preference list: {replicas} (primary first)")
    for shard_id in replicas:
        held = cluster.shards[shard_id].lookup(key).found
        print(f"  {shard_id} holds a copy: {held}")
    print()
    return cluster


def crash_and_failover(cluster: ClusterService) -> str:
    """A crash-stopped shard is detected, marked down and routed around."""
    print("=== Crash-stop and failover ===")
    victim = cluster.shard_for(fingerprint_for(0))
    cluster.fail_shard(victim)  # deterministic device-level fault injection
    print(f"crashed {victim}; cluster does not know yet: down={cluster.down_shard_ids}")
    hit = cluster.lookup(fingerprint_for(0))  # fails over to the surviving replica
    print(f"lookup during outage: found={hit.found} (served by a surviving replica)")
    print(f"after one error the shard is down: down={cluster.down_shard_ids}")
    missing = sum(
        1 for i in range(1_000) if not cluster.lookup(fingerprint_for(i)).found
    )
    print(f"keys unreadable during the outage: {missing} of 1000")
    print()
    return victim


def recover(cluster: ClusterService, victim: str) -> None:
    """Recovery removes the dead shard and restores full replication."""
    print("=== Recovery ===")
    coordinator = RecoveryCoordinator(cluster)
    print(f"detected failed shards: {coordinator.detect()}")
    report = coordinator.recover()
    print(
        "re-replicated %d of %d affected keys (%d copies, %d lost, %.1f%% of the key"
        " space with no surviving owner) in %.2f ms of work"
        % (
            report.keys_re_replicated,
            report.keys_affected,
            report.copies_written,
            report.keys_lost,
            100 * report.lost_fraction,
            report.work_ms,
        )
    )
    handoff = report.handoffs[0]
    print(
        "%s's arcs (%.1f%% of the key space) handed to: %s"
        % (victim, 100 * handoff.moved_fraction, sorted(handoff.gained_fraction))
    )
    full = sum(
        1
        for i in range(1_000)
        if all(
            cluster.shards[s].lookup(fingerprint_for(i)).found
            for s in cluster.replicas_for(fingerprint_for(i))
        )
    )
    print(f"keys back at full replication on the survivors: {full} of 1000")
    health = cluster.stats.health()
    print(f"health: live={health['live_shards']} recoveries={health['recoveries']}")
    print()


def transient_failure_and_read_repair() -> None:
    """A healed shard missed writes; read-repair backfills them on access."""
    print("=== Transient failure, heal and read-repair ===")
    cluster = build_cluster()
    key = fingerprint_for(7, namespace=b"transient")
    primary = cluster.replicas_for(key)[0]
    cluster.fail_shard(primary)
    cluster.lookup(fingerprint_for(0, namespace=b"detect"))  # trip the error counter
    cluster.insert(key, b"written-during-outage")  # lands on the survivor only
    cluster.heal_shard(primary)
    print(f"{primary} healed; has the key: {cluster.shards[primary].lookup(key).found}")
    hit = cluster.lookup(key)
    print(
        f"cluster lookup: found={hit.found}; read-repairs performed: "
        f"{cluster.read_repairs}"
    )
    print(f"{primary} now has the key: {cluster.shards[primary].lookup(key).found}")
    print()


if __name__ == "__main__":
    cluster = replica_placement()
    victim = crash_and_failover(cluster)
    recover(cluster, victim)
    transient_failure_and_read_repair()
