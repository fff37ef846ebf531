"""Tests for replicated cluster operation: fanout, failover, read-repair,
typed unavailability errors and shard health tracking."""

import pytest

from conftest import shard_op
from repro.core.config import CLAMConfig
from repro.core.errors import ConfigurationError, ShardUnavailableError
from repro.service import ClusterService
from repro.service.shard import LocalShard
from repro.workloads import fingerprint_for
from repro.workloads.workload import Operation, OpKind


def make_cluster(num_shards=4, replication_factor=2, **kwargs):
    return ClusterService(
        num_shards=num_shards, replication_factor=replication_factor, **kwargs
    )


def sample_keys(count, namespace=b"replication-test"):
    return [fingerprint_for(i, namespace=namespace) for i in range(count)]


def key_owned_by(cluster, shard_id, namespace=b"owned"):
    """A key whose primary replica is ``shard_id``."""
    for i in range(10_000):
        key = fingerprint_for(i, namespace=namespace)
        if cluster.shard_for(key) == shard_id:
            return key
    raise AssertionError(f"no key found with primary {shard_id}")


class TestConstruction:
    def test_replication_factor_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterService(num_shards=2, replication_factor=0)
        with pytest.raises(ConfigurationError):
            ClusterService(num_shards=2, replication_factor=3)
        with pytest.raises(ConfigurationError):
            ClusterService(num_shards=2, failure_threshold=0)


class TestReplicatedWrites:
    def test_insert_lands_on_every_replica(self):
        cluster = make_cluster()
        keys = sample_keys(200)
        for key in keys:
            cluster.insert(key, b"v")
        for key in keys:
            replicas = cluster.replicas_for(key)
            assert len(replicas) == 2
            for shard_id in replicas:
                assert shard_op(cluster.shards[shard_id], OpKind.LOOKUP, key).found, (key, shard_id)

    def test_delete_removes_every_replica(self):
        cluster = make_cluster()
        key = sample_keys(1)[0]
        cluster.insert(key, b"v")
        cluster.delete(key)
        for shard_id in cluster.replicas_for(key):
            assert not shard_op(cluster.shards[shard_id], OpKind.LOOKUP, key).found
        assert not cluster.lookup(key).found

    def test_batch_writes_also_replicate(self):
        cluster = make_cluster()
        keys = sample_keys(100, namespace=b"batched")
        batch = cluster.execute_batch(
            [Operation(OpKind.INSERT, key, b"v") for key in keys]
        )
        assert all(result is not None for result in batch.results)
        for key in keys:
            for shard_id in cluster.replicas_for(key):
                assert shard_op(cluster.shards[shard_id], OpKind.LOOKUP, key).found

    def test_rf1_matches_single_copy_semantics(self):
        cluster = ClusterService(num_shards=4, replication_factor=1)
        keys = sample_keys(100, namespace=b"rf1")
        for key in keys:
            cluster.insert(key, b"v")
        for key in keys:
            (only,) = cluster.replicas_for(key)
            assert only == cluster.shard_for(key)
            holders = [
                shard_id
                for shard_id, shard in cluster.shards.items()
                if shard_op(shard, OpKind.LOOKUP, key).found
            ]
            assert holders == [only]


class TestFailover:
    def test_lookup_fails_over_and_marks_shard_down(self):
        cluster = make_cluster()
        keys = sample_keys(300)
        for key in keys:
            cluster.insert(key, b"v")
        victim = cluster.shard_for(keys[0])
        cluster.fail_shard(victim)
        assert cluster.down_shard_ids == ()  # not detected yet
        assert all(cluster.lookup(key).found for key in keys)
        assert cluster.down_shard_ids == (victim,)
        assert cluster.shard_errors[victim] >= 1
        assert victim not in cluster.live_shard_ids

    def test_writes_during_outage_go_to_survivors(self):
        cluster = make_cluster()
        victim = "shard-2"
        cluster.fail_shard(victim)
        key = key_owned_by(cluster, victim)
        cluster.insert(key, b"written-during-outage")  # detects + fails over
        assert cluster.lookup(key).value == b"written-during-outage"
        assert victim in cluster.down_shard_ids

    def test_batch_lookup_fails_over_mid_batch(self):
        cluster = make_cluster()
        keys = sample_keys(200)
        cluster.execute_batch([Operation(OpKind.INSERT, key, b"v") for key in keys])
        victim = cluster.shard_for(keys[0])
        cluster.fail_shard(victim)
        batch = cluster.execute_batch([Operation(OpKind.LOOKUP, key) for key in keys])
        assert all(result is not None and result.found for result in batch.results)
        assert victim in batch.failed_shards
        assert batch.retried_operations > 0
        assert victim in cluster.down_shard_ids

    def test_failure_threshold_delays_down_marking(self):
        cluster = make_cluster(failure_threshold=3)
        victim = "shard-0"
        cluster.fail_shard(victim)
        key = key_owned_by(cluster, victim)
        cluster.insert(key, b"v")
        assert cluster.shard_errors[victim] == 1
        assert victim not in cluster.down_shard_ids
        cluster.insert(key, b"v")
        cluster.insert(key, b"v")
        assert cluster.shard_errors[victim] == 3
        assert victim in cluster.down_shard_ids

    def test_all_replicas_down_raises_typed_error(self):
        cluster = make_cluster(num_shards=3, replication_factor=2)
        key = sample_keys(1)[0]
        cluster.insert(key, b"v")
        for shard_id in cluster.replicas_for(key):
            cluster.fail_shard(shard_id)
        with pytest.raises(ShardUnavailableError):
            cluster.lookup(key)  # first call burns the error budget
            cluster.lookup(key)  # second call has no live replica left

    def test_heal_shard_restores_service(self):
        cluster = make_cluster()
        victim = "shard-1"
        cluster.fail_shard(victim)
        key = key_owned_by(cluster, victim)
        cluster.insert(key, b"v")
        assert victim in cluster.down_shard_ids
        cluster.heal_shard(victim)
        assert victim not in cluster.down_shard_ids
        assert cluster.shard_errors.get(victim, 0) == 0
        assert victim in cluster.live_shard_ids


class TestReadRepair:
    def test_lookup_repairs_a_diverged_replica(self):
        # Hinted handoff covers writes the cluster *saw* a replica miss;
        # read-repair is the second line of defence for divergence it did
        # not see.  Model that by dropping one replica's copy directly.
        cluster = make_cluster()
        key = sample_keys(1, namespace=b"repair")[0]
        primary = cluster.replicas_for(key)[0]
        cluster.insert(key, b"fresh-value")
        shard_op(cluster.shards[primary], OpKind.DELETE, key)  # silent divergence
        assert not shard_op(cluster.shards[primary], OpKind.LOOKUP, key).found
        result = cluster.lookup(key)
        assert result.found and result.value == b"fresh-value"
        assert cluster.read_repairs == 1
        assert shard_op(cluster.shards[primary], OpKind.LOOKUP, key).found

    def test_no_repair_on_clean_miss(self):
        cluster = make_cluster()
        assert not cluster.lookup(b"never-written").found
        assert cluster.read_repairs == 0


class TestTypedUnavailability:
    """Regression: a shard removed mid-flight used to surface as a bare
    ``KeyError`` from the shard mapping; every dispatch now goes through the
    router's live view and raises ShardUnavailableError instead."""

    def test_sequential_dispatch_to_vanished_shard_is_typed(self):
        cluster = ClusterService(num_shards=3)
        key = sample_keys(1)[0]
        owner = cluster.shard_for(key)
        del cluster.shards[owner]  # desync the mapping from the ring
        with pytest.raises(ShardUnavailableError):
            cluster.insert(key, b"v")
        with pytest.raises(ShardUnavailableError):
            cluster.lookup(key)

    def test_batch_dispatch_to_vanished_shard_is_typed(self):
        cluster = ClusterService(num_shards=3)
        keys = sample_keys(50)
        owner = cluster.shard_for(keys[0])
        targeted = [key for key in keys if cluster.shard_for(key) == owner]
        del cluster.shards[owner]
        with pytest.raises(ShardUnavailableError):
            cluster.execute_batch(
                [Operation(OpKind.INSERT, key, b"v") for key in targeted]
            )

    def test_batch_reroutes_when_a_replica_survives(self):
        cluster = make_cluster(num_shards=4, replication_factor=2)
        keys = sample_keys(100)
        cluster.execute_batch([Operation(OpKind.INSERT, key, b"v") for key in keys])
        victim = cluster.shard_for(keys[0])
        del cluster.shards[victim]  # vanished mid-flight, but RF=2 covers it
        batch = cluster.execute_batch([Operation(OpKind.LOOKUP, key) for key in keys])
        assert all(result is not None and result.found for result in batch.results)


class TestHealthReporting:
    def test_health_snapshot(self):
        cluster = make_cluster()
        for key in sample_keys(50):
            cluster.insert(key, b"v")
        health = cluster.stats.health()
        assert health["replication_factor"] == 2
        assert health["down_shards"] == []
        assert len(health["live_shards"]) == 4
        victim = "shard-3"
        cluster.fail_shard(victim)
        cluster.insert(key_owned_by(cluster, victim), b"v")
        health = cluster.stats.health()
        assert health["down_shards"] == [victim]
        assert health["shard_errors"][victim] >= 1

    def test_describe_includes_fleet_liveness(self):
        cluster = make_cluster()
        summary = cluster.describe()
        assert summary["live_shards"] == 4.0
        assert summary["down_shards"] == 0.0
        assert summary["replication_factor"] == 2.0


class TestHintedHandoff:
    """Writes and deletes a down replica missed are replayed when it heals,
    so replicas later in the preference list come back neither missing keys
    nor serving stale values (regression: read-repair alone only fixed
    replicas a lookup probed *before* its first hit)."""

    def replica_pair(self, cluster, namespace=b"hints"):
        key = fingerprint_for(0, namespace=namespace)
        primary, secondary = cluster.replicas_for(key)
        return key, primary, secondary

    def test_heal_backfills_a_later_replica(self):
        cluster = make_cluster()
        key, _primary, secondary = self.replica_pair(cluster)
        cluster.fail_shard(secondary)
        cluster.record_shard_error(secondary)
        cluster.insert(key, b"v1")  # lands on the primary only
        cluster.heal_shard(secondary)
        # Lookups would be served by the primary and never probe the healed
        # replica — the hint replay must have backfilled it directly.
        assert shard_op(cluster.shards[secondary], OpKind.LOOKUP, key).value == b"v1"
        assert cluster.hinted_handoffs == 1

    def test_sequential_nonoverlapping_failures_lose_nothing(self):
        from repro.service import KeyMigrator

        cluster = make_cluster()
        key, primary, secondary = self.replica_pair(cluster)
        cluster.fail_shard(secondary)
        cluster.record_shard_error(secondary)
        cluster.insert(key, b"v1")
        cluster.heal_shard(secondary)
        cluster.fail_shard(primary)
        cluster.record_shard_error(primary)
        report = KeyMigrator(cluster).recover()
        assert report.keys_lost == 0
        assert cluster.lookup(key).value == b"v1"

    def test_heal_overwrites_a_stale_value(self):
        cluster = make_cluster()
        key, primary, _secondary = self.replica_pair(cluster, namespace=b"stale")
        cluster.insert(key, b"v1")
        cluster.fail_shard(primary)
        cluster.record_shard_error(primary)
        cluster.update(key, b"v2")  # survivor only
        cluster.heal_shard(primary)
        assert shard_op(cluster.shards[primary], OpKind.LOOKUP, key).value == b"v2"
        assert cluster.lookup(key).value == b"v2"

    def test_heal_applies_a_missed_delete(self):
        cluster = make_cluster()
        key, primary, _secondary = self.replica_pair(cluster, namespace=b"deleted")
        cluster.insert(key, b"doomed")
        cluster.fail_shard(primary)
        cluster.record_shard_error(primary)
        cluster.delete(key)
        cluster.heal_shard(primary)
        assert not shard_op(cluster.shards[primary], OpKind.LOOKUP, key).found
        assert not cluster.lookup(key).found  # no resurrection

    def test_batch_writes_record_hints_too(self):
        cluster = make_cluster()
        key, _primary, secondary = self.replica_pair(cluster, namespace=b"batched-hint")
        cluster.fail_shard(secondary)
        cluster.record_shard_error(secondary)
        cluster.execute_batch([Operation(OpKind.INSERT, key, b"v1")])
        cluster.heal_shard(secondary)
        assert shard_op(cluster.shards[secondary], OpKind.LOOKUP, key).value == b"v1"


class TestTruncatedDirectedSubBatches:
    """A shard whose device fails part-way through a directed sub-batch (a
    flush hits an I/O error) counts one error for it, and nothing the
    sub-batch ran is trusted: a failed flush drops the writes it buffered."""

    SMALL = CLAMConfig.scaled(
        num_super_tables=1, buffer_capacity_items=16, incarnations_per_table=16
    )

    def test_a_failed_hint_replay_keeps_every_hint(self):
        cluster = make_cluster(num_shards=3, virtual_nodes=16, config=self.SMALL)
        keys = sample_keys(120, namespace=b"replay-cut")
        cluster.insert_batch([(key, b"v1") for key in keys])
        cluster.fail_shard("shard-1")
        cluster.insert_batch([(key, b"v2") for key in keys])
        hinted = set(cluster._hints["shard-1"])
        shard = cluster.shards["shard-1"]
        inserts = shard.counters()["inserts"]

        def heal_into_io_errors():  # the device fails again as it rejoins
            LocalShard.heal(shard)
            shard.inject_fault("io-errors", {"error_rate": 1.0})

        shard.heal = heal_into_io_errors
        cluster.heal_shard("shard-1")
        assert 0 < shard.counters()["inserts"] - inserts < len(hinted)  # failed part-way
        assert cluster.shard_errors == {"shard-1": 1}
        assert cluster.hinted_handoffs == 0
        assert cluster._hints["shard-1"] == hinted
        del shard.heal
        cluster.heal_shard("shard-1")
        assert "shard-1" not in cluster._hints
        assert all(shard_op(shard, OpKind.LOOKUP, key).value == b"v2" for key in hinted)
        assert all(cluster.lookup(key).value == b"v2" for key in keys)

    def test_a_failed_repair_sub_batch_counts_one_error(self):
        cluster = make_cluster(num_shards=2, virtual_nodes=16, config=self.SMALL)
        keys = sample_keys(60, namespace=b"repair-cut")
        cluster.fail_shard("shard-1")
        cluster.insert_batch([(key, b"v") for key in keys])
        cluster._hints.clear()  # lost hints: only read repair can restore shard-1
        cluster.heal_shard("shard-1")
        cluster.fail_shard("shard-1", "io-errors", error_rate=1.0)
        owed = sum(cluster.shard_for(key) == "shard-1" for key in keys)
        assert owed > 16  # more repairs than shard-1's buffer holds
        assert all(result.value == b"v" for result in cluster.lookup_batch(keys))
        assert 0 < cluster.shards["shard-1"].counters()["inserts"] < owed  # failed part-way
        assert cluster.shard_errors == {"shard-1": 1}
        assert cluster.read_repairs == 0
        cluster.heal_shard("shard-1")
        assert all(cluster.lookup(key).value == b"v" for key in keys)
