"""Tests for failure detection and re-replication (service.recovery)."""

import pytest

from repro.core.errors import ConfigurationError, ShardUnavailableError
from repro.service import ClusterService, RecoveryCoordinator
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
        assert report.keys_scanned == 0
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
        assert report.keys_scanned == len(keys)
        assert report.keys_affected == expected_affected
        assert report.copies_written == sum(report.keys_gained.values())
        assert report.work_ms > 0
        assert report.complete
        (handoff,) = report.handoffs
        assert handoff.removed == (victim,)
        assert 0 < handoff.moved_fraction < 1

    def test_rf1_reports_lost_keys_instead_of_hiding_them(self):
        cluster, keys = populated_cluster(replication_factor=1, track_keys=True)
        victim = "shard-0"
        owned = [key for key in keys if cluster.shard_for(key) == victim]
        assert owned  # the victim owns something
        crash_and_detect(cluster, victim)
        report = RecoveryCoordinator(cluster).recover()
        assert report.keys_lost == len(owned)
        assert not report.complete
        assert report.keys_re_replicated == 0

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

    def test_recovery_requires_key_tracking(self):
        cluster = ClusterService(num_shards=3, replication_factor=1)
        cluster.insert(b"k", b"v")
        cluster.fail_shard("shard-0")
        cluster.record_shard_error("shard-0")
        with pytest.raises(ConfigurationError):
            RecoveryCoordinator(cluster).recover()

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
