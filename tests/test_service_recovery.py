"""Tests for failure detection and re-replication (``KeyMigrator.recover``)."""

import pytest

from conftest import shard_op
from repro.core.config import CLAMConfig
from repro.core.errors import ShardUnavailableError
from repro.service import (
    ClusterService,
    KeyMigrator,
    MigrationReport,
    TrafficSimulator,
    TrafficSpec,
    WorkerProcesses,
)
from repro.workloads import OpKind, fingerprint_for


def populated_cluster(num_shards=4, replication_factor=2, keys=300, **kwargs):
    cluster = ClusterService(
        num_shards=num_shards, replication_factor=replication_factor, **kwargs
    )
    inserted = [fingerprint_for(i, namespace=b"recovery") for i in range(keys)]
    for key in inserted:
        cluster.insert(key, b"value-" + key[:6])
    return cluster, inserted


def crash_and_detect(cluster, victim):
    """Crash a shard and trip the error counter so detection fires."""
    cluster.fail_shard(victim)
    for i in range(10_000):
        key = fingerprint_for(i, namespace=b"detect")
        if cluster.shard_for(key) == victim:
            try:
                cluster.lookup(key)
            except ShardUnavailableError:
                pass  # RF=1: the probe itself has no surviving replica
            break
    assert victim in cluster.down_shard_ids


def stalled_recovery():
    """A 4-shard RF=2 cluster whose recovery of ``shard-1`` stalled: ``shard-2``
    stops answering, under a threshold that keeps it in the live view."""
    cluster, keys = populated_cluster(failure_threshold=1_000)
    cluster.fail_shard("shard-1")
    while "shard-1" not in cluster.down_shard_ids:
        cluster.record_shard_error("shard-1")
    cluster.fail_shard("shard-2")
    with pytest.raises(ShardUnavailableError):
        KeyMigrator(cluster).recover()
    assert cluster.migration is not None
    return cluster, keys


class TestDetection:
    def test_detect_reports_shards_over_threshold(self):
        cluster, _ = populated_cluster()
        assert cluster.down_shard_ids == ()
        crash_and_detect(cluster, "shard-1")
        assert cluster.down_shard_ids == ("shard-1",)

    def test_recover_with_nothing_down_is_a_no_op(self):
        cluster, _ = populated_cluster()
        migrator = KeyMigrator(cluster)
        report = migrator.recover()
        assert (report.direction, report.subject) == ("recovery", "")
        assert report.keys_seeded == report.keys_lost == 0 and report.lost_fraction == 0
        assert cluster.num_shards == 4
        assert migrator.reports == [] and cluster.events.events("migration_started") == []

    def test_recover_with_nothing_down_keeps_the_last_recovery(self):
        cluster, _ = populated_cluster()
        crash_and_detect(cluster, "shard-1")
        migrator = KeyMigrator(cluster)
        last = migrator.recover()
        before = cluster.stats.health()
        assert before["keys_re_replicated"] == last.keys_re_replicated > 0
        assert migrator.recover() == MigrationReport("recovery", "")
        assert cluster.last_recovery is last
        assert cluster.stats.health() == before


class TestRecovery:
    def test_no_key_lost_with_rf2(self):
        cluster, keys = populated_cluster()
        crash_and_detect(cluster, "shard-1")
        report = KeyMigrator(cluster).recover()
        assert report.subject == "shard-1"
        assert report.keys_lost == 0
        assert report.keys_seeded > 0
        assert report.keys_re_replicated == report.keys_seeded
        assert "shard-1" not in cluster.shards
        # Every key is readable and back at full replication on survivors.
        for key in keys:
            assert cluster.lookup(key).found
            replicas = cluster.replicas_for(key)
            assert len(replicas) == 2
            for shard_id in replicas:
                assert shard_op(cluster.shards[shard_id], OpKind.LOOKUP, key).found

    def test_report_accounting_matches_the_ring(self):
        cluster, keys = populated_cluster()
        victim = "shard-2"
        # Keys whose preference list contains the victim, computed up front.
        expected_affected = sum(
            1 for key in keys if victim in cluster.replicas_for(key)
        )
        crash_and_detect(cluster, victim)
        report = KeyMigrator(cluster).recover()
        assert report.lost_fraction == 0
        assert report.keys_seeded == expected_affected
        assert report.copies_written == sum(report.keys_gained.values())
        assert report.work_ms > 0
        assert report.keys_lost == 0
        assert report.subject == victim
        assert 0 < report.moved_fraction < 1

    def test_rf1_reports_lost_keys_instead_of_hiding_them(self):
        """Nobody is left to scan the victim's arcs: the report names their
        share of the key space instead of a key count nothing can know."""
        cluster, keys = populated_cluster(replication_factor=1)
        victim = "shard-0"
        assert any(cluster.shard_for(key) == victim for key in keys)
        crash_and_detect(cluster, victim)
        report = KeyMigrator(cluster).recover()
        assert report.lost_fraction == pytest.approx(report.moved_fraction)
        assert report.lost_fraction > 0
        assert report.keys_seeded == report.keys_re_replicated == 0

    def test_recovery_updates_cluster_counters_and_health(self):
        cluster, _ = populated_cluster()
        crash_and_detect(cluster, "shard-3")
        migrator = KeyMigrator(cluster)
        report = migrator.recover()
        assert cluster.last_recovery is report
        assert cluster.recoveries == 1
        assert migrator.reports == [report]
        health = cluster.stats.health()
        assert health["recoveries"] == 1
        assert health["keys_re_replicated"] == report.keys_re_replicated
        assert health["down_shards"] == []

    def test_two_simultaneous_failures_with_rf3(self):
        cluster, keys = populated_cluster(
            num_shards=5, replication_factor=3, keys=200
        )
        own = cluster.router.ownership_fractions()
        for victim in ("shard-1", "shard-4"):
            crash_and_detect(cluster, victim)
        report = KeyMigrator(cluster).recover()
        assert report.subject == "shard-1,shard-4"
        assert report.keys_lost == 0
        # The share the dead shards owned, each arc counted once.
        assert report.moved_fraction == pytest.approx(own["shard-1"] + own["shard-4"], rel=1e-12)
        for key in keys:
            assert cluster.lookup(key).found
            for shard_id in cluster.replicas_for(key):
                assert shard_op(cluster.shards[shard_id], OpKind.LOOKUP, key).found

    def test_new_owner_that_cannot_take_its_copy_is_hinted(self):
        """A new owner still in the live view whose copy writes fail catches
        up by hinted handoff when it heals.  The owner is crash-stopped under
        a high threshold: io-errors fail only flash I/O, so a failed write
        would be a failed flush, which drops the shard's whole buffer.  RF=3
        keeps a third replica for the keys both failed shards hold."""
        cluster, keys = populated_cluster(
            num_shards=5, replication_factor=3, failure_threshold=1_000
        )
        cluster.fail_shard("shard-1")
        while "shard-1" not in cluster.down_shard_ids:
            cluster.record_shard_error("shard-1")
        cluster.fail_shard("shard-2")
        report = KeyMigrator(cluster).recover()
        assert report.subject == "shard-1"
        assert report.keys_lost == 0
        assert "shard-2" in cluster.live_shard_ids and "shard-2" not in report.keys_gained
        cluster.heal_shard("shard-2")
        hosted = [key for key in keys if "shard-2" in cluster.replicas_for(key)]
        assert hosted
        for key in hosted:
            assert shard_op(cluster.shards["shard-2"], OpKind.LOOKUP, key).found

    def test_a_stalled_pass_is_drained_not_aborted(self):
        """A survivor that stops answering mid-pass (still instantiated, so its
        keys are not lost) stalls the pass with its migration installed; once
        it heals, a migrator that did not start the migration finishes it."""
        cluster, keys = stalled_recovery()
        cluster.heal_shard("shard-2")
        report = KeyMigrator(cluster).run_to_completion()
        assert (report.direction, report.subject, report.keys_lost) == ("recovery", "shard-1", 0)
        assert cluster.migration is None
        for key in keys:
            for shard_id in cluster.replicas_for(key):
                assert shard_op(cluster.shards[shard_id], OpKind.LOOKUP, key).found

    def test_a_traffic_run_finishes_a_stalled_recovery(self):
        """The simulator's own migrator steps the migration the stalled pass
        left installed, between requests, and drains it at the end."""
        cluster, keys = stalled_recovery()
        cluster.heal_shard("shard-2")
        spec = TrafficSpec(num_clients=2, requests_per_client=10, batch_size=4, seed=5)
        report = TrafficSimulator(cluster, spec).run()
        assert report.requests == 20 and report.failed_requests == 0
        assert [migration.direction for migration in report.migrations] == ["recovery"]
        assert cluster.migration is None
        for key in keys:
            assert cluster.lookup(key).found

    def test_recovered_cluster_keeps_serving_writes(self):
        cluster, _ = populated_cluster()
        crash_and_detect(cluster, "shard-1")
        KeyMigrator(cluster).recover()
        fresh = [fingerprint_for(i, namespace=b"post-recovery") for i in range(100)]
        for key in fresh:
            cluster.insert(key, b"new")
        for key in fresh:
            assert cluster.lookup(key).value == b"new"
            for shard_id in cluster.replicas_for(key):
                assert shard_op(cluster.shards[shard_id], OpKind.LOOKUP, key).found


#: Reading (x) of the ROADMAP: a persistent RF=2 cluster whose parent process
#: restarts between the writes and a failure.
RESTART_CONFIG = CLAMConfig.scaled(
    num_super_tables=4, buffer_capacity_items=64, incarnations_per_table=8
)


def crash_shard(cluster, shard_id):
    cluster.fail_shard(shard_id)
    while shard_id not in cluster.down_shard_ids:
        cluster.record_shard_error(shard_id)


def recover_after_restart(data_dir, keys, workers=None):
    """Write, restart the parent, crash ``shard-0``, recover, crash ``shard-1``.

    Returns the recovery report and how many acked keys still read back.
    """
    spec = dict(
        num_shards=4,
        replication_factor=2,
        config=RESTART_CONFIG,
        storage="persistent",
        data_dir=str(data_dir),
        workers=workers,
    )
    inserted = [fingerprint_for(i, namespace=b"restart") for i in range(keys)]
    with ClusterService(**spec) as cluster:
        cluster.insert_batch([(key, b"v-" + key[:4]) for key in inserted])
    with ClusterService(**spec) as cluster:
        crash_shard(cluster, "shard-0")
        report = KeyMigrator(cluster).recover()
        crash_shard(cluster, "shard-1")
        readable = sum(cluster.lookup(key).value == b"v-" + key[:4] for key in inserted)
    return report, readable


class TestParentRestart:
    """Recovery seeds its arcs from the survivors' contents, so a parent that
    restarted and remembers no keys still re-replicates every one of them."""

    def test_recovery_after_a_parent_restart_re_replicates(self, tmp_path):
        report, readable = recover_after_restart(tmp_path, 300)
        assert report.keys_seeded > 0
        assert report.keys_lost == 0 and report.lost_fraction == 0
        assert readable == 300

    def test_worker_processes_recover_alike_after_a_restart(self, tmp_path):
        keys = 120
        expected, readable = recover_after_restart(tmp_path / "inproc", keys)
        assert readable == keys
        report, readable = recover_after_restart(tmp_path / "workers", keys, WorkerProcesses())
        assert readable == keys
        assert report.keys_seeded > 0
        assert report == expected


class TestReopenShard:
    def test_a_volatile_shard_reopens_empty_replays_hints_and_rejoins(self):
        """An in-process volatile shard is reopened as a worker is: it comes
        back empty, the writes it missed while down are replayed from its
        hints, and it serves again with no report to return."""
        cluster, inserted = populated_cluster()
        crash_and_detect(cluster, "shard-1")
        missed = [fingerprint_for(i, namespace=b"while-down") for i in range(100)]
        for key in missed:
            cluster.insert(key, b"missed")
        hinted = [key for key in missed if "shard-1" in cluster.replicas_for(key)]
        assert hinted
        assert cluster.reopen_shard("shard-1") is None
        assert cluster.is_live("shard-1") and cluster.shard_errors == {}
        assert cluster.hinted_handoffs == len(hinted)
        shard = cluster.shards["shard-1"]
        assert all(shard_op(shard, OpKind.LOOKUP, key).value == b"missed" for key in hinted)
        assert not any(shard_op(shard, OpKind.LOOKUP, key).found for key in inserted)
        kinds = cluster.events.kinds()
        assert "crash_recovery_started" in kinds and "hinted_handoff_replay" in kinds
        assert "crash_recovery_completed" not in kinds
        for key in inserted:
            assert cluster.lookup(key).value == b"value-" + key[:6]


#: One seeded RF=2 drill (300 keys on 4 shards, ``shard-1`` crashed), as
#: recorded before recovery became a ``KeyMigrator`` method (``keys_affected``
#: is the report's ``keys_seeded``); both backends produce it bit for bit.
PINNED_DRILL = {
    "keys_affected": 151,
    "keys_re_replicated": 151,
    "copies_written": 151,
    "keys_lost": 0,
    "lost_fraction": 0.0,
    "work_ms": 7.474700000000023,
    "duration_ms": 2.5951000000000057,
}
PINNED_EVENT = {
    "shards": ["shard-1"],
    "keys_re_replicated": 151,
    "copies_written": 151,
    "keys_lost": 0,
    "lost_fraction": 0.0,
    "duration_ms": 2.5951000000000057,
}
PINNED_HEALTH = {
    "replication_factor": 2,
    "live_shards": ["shard-0", "shard-2", "shard-3"],
    "down_shards": [],
    "shard_errors": {},
    "read_repairs": 0,
    "hinted_handoffs": 0,
    "recoveries": 1,
    "keys_re_replicated": 151,
    "last_recovery_ms": 2.5951000000000057,
    "shards_ever_down": ["shard-1"],
    "healed_shards": [],
    "shards_never_failed": ["shard-0", "shard-2", "shard-3"],
}


@pytest.mark.parametrize("workers", [None, WorkerProcesses()], ids=["in-process", "workers"])
def test_a_seeded_drill_reports_its_pinned_numbers(workers):
    cluster, _ = populated_cluster(workers=workers)
    try:
        crash_and_detect(cluster, "shard-1")
        report = KeyMigrator(cluster).recover()
        numbers = {
            "keys_affected": report.keys_seeded,
            "keys_re_replicated": report.keys_re_replicated,
            "copies_written": report.copies_written,
            "keys_lost": report.keys_lost,
            "lost_fraction": report.lost_fraction,
            "work_ms": report.work_ms,
            "duration_ms": report.duration_ms,
        }
        assert numbers == PINNED_DRILL
        (event,) = cluster.events.events("recovery")
        assert event.attributes == PINNED_EVENT
        assert cluster.stats.health() == PINNED_HEALTH
    finally:
        cluster.close()
