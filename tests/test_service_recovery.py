"""Tests for failure detection and re-replication (service.recovery)."""

import pytest

from repro.core.config import CLAMConfig
from repro.core.errors import ConfigurationError, ShardUnavailableError
from repro.service import ClusterService, ParallelClusterService, RecoveryCoordinator
from repro.workloads import fingerprint_for


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


class TestDetection:
    def test_detect_reports_shards_over_threshold(self):
        cluster, _ = populated_cluster()
        coordinator = RecoveryCoordinator(cluster)
        assert coordinator.detect() == ()
        crash_and_detect(cluster, "shard-1")
        assert coordinator.detect() == ("shard-1",)

    def test_recover_with_nothing_down_is_a_no_op(self):
        cluster, _ = populated_cluster()
        coordinator = RecoveryCoordinator(cluster)
        report = coordinator.recover()
        assert report.failed_shards == ()
        assert report.keys_affected == 0 and report.lost_fraction == 0
        assert report.complete
        assert cluster.num_shards == 4


class TestRecovery:
    def test_no_key_lost_with_rf2(self):
        cluster, keys = populated_cluster()
        crash_and_detect(cluster, "shard-1")
        report = RecoveryCoordinator(cluster).recover()
        assert report.failed_shards == ("shard-1",)
        assert report.keys_lost == 0
        assert report.keys_affected > 0
        assert report.keys_re_replicated == report.keys_affected
        assert "shard-1" not in cluster.shards
        # Every key is readable and back at full replication on survivors.
        for key in keys:
            assert cluster.lookup(key).found
            replicas = cluster.replicas_for(key)
            assert len(replicas) == 2
            for shard_id in replicas:
                assert cluster.shards[shard_id].lookup(key).found

    def test_report_accounting_matches_the_ring(self):
        cluster, keys = populated_cluster()
        victim = "shard-2"
        # Keys whose preference list contains the victim, computed up front.
        expected_affected = sum(
            1 for key in keys if victim in cluster.replicas_for(key)
        )
        crash_and_detect(cluster, victim)
        report = RecoveryCoordinator(cluster).recover()
        assert report.lost_fraction == 0
        assert report.keys_affected == expected_affected
        assert report.copies_written == sum(report.keys_gained.values())
        assert report.work_ms > 0
        assert report.complete
        (handoff,) = report.handoffs
        assert handoff.removed == (victim,)
        assert 0 < handoff.moved_fraction < 1

    def test_rf1_reports_lost_keys_instead_of_hiding_them(self):
        """Nobody is left to scan the victim's arcs: the report names their
        share of the key space instead of a key count nothing can know."""
        cluster, keys = populated_cluster(replication_factor=1)
        victim = "shard-0"
        assert any(cluster.shard_for(key) == victim for key in keys)
        crash_and_detect(cluster, victim)
        report = RecoveryCoordinator(cluster).recover()
        (handoff,) = report.handoffs
        assert report.lost_fraction == pytest.approx(handoff.moved_fraction)
        assert report.lost_fraction > 0
        assert not report.complete
        assert report.keys_affected == report.keys_re_replicated == 0

    def test_recovery_updates_cluster_counters_and_health(self):
        cluster, _ = populated_cluster()
        crash_and_detect(cluster, "shard-3")
        coordinator = RecoveryCoordinator(cluster)
        report = coordinator.recover()
        assert cluster.last_recovery is report
        assert cluster.recoveries == 1
        assert coordinator.reports == [report]
        health = cluster.stats.health()
        assert health["recoveries"] == 1
        assert health["keys_re_replicated"] == report.keys_re_replicated
        assert health["down_shards"] == []

    def test_two_simultaneous_failures_with_rf3(self):
        cluster, keys = populated_cluster(
            num_shards=5, replication_factor=3, keys=200
        )
        for victim in ("shard-1", "shard-4"):
            crash_and_detect(cluster, victim)
        report = RecoveryCoordinator(cluster).recover()
        assert set(report.failed_shards) == {"shard-1", "shard-4"}
        assert report.keys_lost == 0
        for key in keys:
            assert cluster.lookup(key).found
            for shard_id in cluster.replicas_for(key):
                assert cluster.shards[shard_id].lookup(key).found

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
        report = RecoveryCoordinator(cluster).recover()
        assert report.failed_shards == ("shard-1",)
        assert report.keys_lost == 0
        assert "shard-2" in cluster.live_shard_ids and "shard-2" not in report.keys_gained
        cluster.heal_shard("shard-2")
        hosted = [key for key in keys if "shard-2" in cluster.replicas_for(key)]
        assert hosted
        for key in hosted:
            assert cluster.shards["shard-2"].lookup(key).found

    def test_a_stalled_pass_is_drained_not_aborted(self):
        """A survivor that stops answering mid-pass (still instantiated, so its
        keys are not lost) stalls the pass; once it heals, the coordinator's
        migrator finishes the move."""
        cluster, keys = populated_cluster(failure_threshold=1_000)
        cluster.fail_shard("shard-1")
        while "shard-1" not in cluster.down_shard_ids:
            cluster.record_shard_error("shard-1")
        cluster.fail_shard("shard-2")
        coordinator = RecoveryCoordinator(cluster)
        with pytest.raises(ShardUnavailableError):
            coordinator.recover()
        with pytest.raises(ConfigurationError):
            coordinator.migrator.abort()
        cluster.heal_shard("shard-2")
        coordinator.migrator.run_to_completion()
        assert coordinator.migrator.keys_lost == 0
        for key in keys:
            for shard_id in cluster.replicas_for(key):
                assert cluster.shards[shard_id].lookup(key).found

    def test_recovered_cluster_keeps_serving_writes(self):
        cluster, _ = populated_cluster()
        crash_and_detect(cluster, "shard-1")
        RecoveryCoordinator(cluster).recover()
        fresh = [fingerprint_for(i, namespace=b"post-recovery") for i in range(100)]
        for key in fresh:
            cluster.insert(key, b"new")
        for key in fresh:
            assert cluster.lookup(key).value == b"new"
            for shard_id in cluster.replicas_for(key):
                assert cluster.shards[shard_id].lookup(key).found


#: Reading (x) of the ROADMAP: a persistent RF=2 cluster whose parent process
#: restarts between the writes and a failure.
RESTART_CONFIG = CLAMConfig.scaled(
    num_super_tables=4, buffer_capacity_items=64, incarnations_per_table=8
)


def crash_shard(cluster, shard_id):
    cluster.fail_shard(shard_id)
    while shard_id not in cluster.down_shard_ids:
        cluster.record_shard_error(shard_id)


def kill_shard(cluster, shard_id):
    cluster.kill_worker(shard_id)
    assert cluster.check_workers() == [shard_id]


def recover_after_restart(deployment, data_dir, crash, keys):
    """Write, restart the parent, crash ``shard-0``, recover, crash ``shard-1``.

    Returns the recovery report and how many acked keys still read back.
    """
    spec = dict(
        num_shards=4,
        replication_factor=2,
        config=RESTART_CONFIG,
        storage="persistent",
        data_dir=str(data_dir),
    )
    inserted = [fingerprint_for(i, namespace=b"restart") for i in range(keys)]
    with deployment(**spec) as cluster:
        cluster.insert_batch([(key, b"v-" + key[:4]) for key in inserted])
    with deployment(**spec) as cluster:
        crash(cluster, "shard-0")
        report = RecoveryCoordinator(cluster).recover()
        crash(cluster, "shard-1")
        readable = sum(cluster.lookup(key).value == b"v-" + key[:4] for key in inserted)
    return report, readable


class TestParentRestart:
    """Recovery seeds its arcs from the survivors' contents, so a parent that
    restarted and remembers no keys still re-replicates every one of them."""

    def test_recovery_after_a_parent_restart_re_replicates(self, tmp_path):
        report, readable = recover_after_restart(ClusterService, tmp_path, crash_shard, 300)
        assert report.keys_affected > 0
        assert report.keys_lost == 0 and report.complete
        assert readable == 300

    def test_worker_processes_recover_alike_after_a_restart(self, tmp_path):
        keys = 120
        expected, readable = recover_after_restart(
            ClusterService, tmp_path / "inproc", crash_shard, keys
        )
        assert readable == keys
        report, readable = recover_after_restart(
            ParallelClusterService, tmp_path / "workers", kill_shard, keys
        )
        assert readable == keys
        assert report.keys_affected > 0
        assert report == expected
