"""Tests for the ClusterService facade and cross-shard stats aggregation."""

import pytest

from conftest import shard_op
from repro.core import CLAM, CLAMConfig
from repro.core.errors import ConfigurationError, ShardUnavailableError
from repro.service import ClusterService, KeyMigrator
from repro.service.cluster import hot_shards
from repro.workloads import (
    Operation,
    OpKind,
    WorkloadRunner,
    WorkloadSpec,
    build_mixed_workload,
    fingerprint_for,
)


@pytest.fixture
def cluster_config() -> CLAMConfig:
    return CLAMConfig.scaled(num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4)


@pytest.fixture
def cluster(cluster_config: CLAMConfig) -> ClusterService:
    return ClusterService(num_shards=4, config=cluster_config)


class TestHashIndexInterface:
    def test_basic_operations(self, cluster: ClusterService):
        result = cluster.insert(b"key-1", b"value-1")
        assert result.latency_ms > 0
        lookup = cluster.lookup(b"key-1")
        assert lookup.found and lookup.value == b"value-1"
        cluster.update(b"key-1", b"value-2")
        assert cluster.get(b"key-1") == b"value-2"
        assert b"key-1" in cluster
        cluster.delete(b"key-1")
        assert b"key-1" not in cluster

    @pytest.mark.parametrize("replication_factor", [1, 2])
    def test_single_ops_are_batches_of_one(self, cluster_config, replication_factor):
        """One stream as single operations and as one-operation batches: same
        records, counters, hints, repairs, health and ensemble clock — through
        a silent replica divergence and a mid-stream shard crash."""
        keys = [fingerprint_for(i, namespace=b"ones") for i in range(60)]
        kinds = (OpKind.LOOKUP, OpKind.UPDATE, OpKind.LOOKUP, OpKind.DELETE, OpKind.INSERT)
        stream = [Operation(OpKind.INSERT, key, b"first") for key in keys]
        stream.extend(Operation(kinds[i % 5], keys[i % 60], b"value-%d" % i) for i in range(150))
        stream.extend(Operation(OpKind.LOOKUP, key) for key in keys)

        def single(cluster, op):
            if op.kind in (OpKind.LOOKUP, OpKind.DELETE):
                return getattr(cluster, op.kind.value)(op.key)
            return getattr(cluster, op.kind.value)(op.key, op.value)

        def batch_of_one(cluster, op):
            return cluster.execute_batch([op]).results[0]

        def drive(issue):
            cluster = ClusterService(
                num_shards=3, config=cluster_config, replication_factor=replication_factor
            )
            records = []
            for position, op in enumerate(stream):
                if position == 60:  # silent divergence on this lookup's primary
                    shard_op(cluster.shards[cluster.shard_for(op.key)], OpKind.DELETE, op.key)
                if position == 120:
                    cluster.fail_shard("shard-1")  # crashed, detected by the traffic
                try:
                    records.append(issue(cluster, op))
                except ShardUnavailableError:
                    records.append("unavailable")
            return cluster, records

        singles, single_records = drive(single)
        batched, batch_records = drive(batch_of_one)
        assert single_records == batch_records
        assert singles.stats.combined() == batched.stats.combined()
        assert singles._hints == batched._hints
        assert singles.read_repairs == batched.read_repairs
        assert singles.down_shard_ids == batched.down_shard_ids
        assert singles.clock.now_ms == batched.clock.now_ms
        if replication_factor == 2:
            assert singles.read_repairs == 1 and "unavailable" not in single_records
            assert singles._hints["shard-1"]
        else:
            assert "unavailable" in single_records

    def test_runner_drives_cluster_end_to_end(self, cluster: ClusterService):
        """The acceptance-criteria path: existing runner, 4-shard cluster."""
        operations = build_mixed_workload(WorkloadSpec(num_keys=800, seed=21))
        report = WorkloadRunner(cluster).run(operations)
        assert report.operations == len(operations)
        assert report.lookups == sum(1 for op in operations if op.kind is OpKind.LOOKUP)
        assert report.simulated_duration_ms > 0
        assert report.mean_lookup_latency_ms > 0
        # Every shard took part.
        assert set(cluster.stats.operations_per_shard()) == set(cluster.shard_ids)
        assert all(ops > 0 for ops in cluster.stats.operations_per_shard().values())

    def test_cluster_matches_single_clam_results(self):
        """Sharding must not change answers, only placement/timing.

        Sized so nothing evicts: with identical op streams, a 4-shard cluster
        and one big CLAM return identical lookup outcomes for every key.
        """
        operations = build_mixed_workload(WorkloadSpec(num_keys=500, seed=13))
        single = CLAM(CLAMConfig.scaled())
        clustered = ClusterService(num_shards=4, config=CLAMConfig.scaled())
        single_report = WorkloadRunner(single).run(operations)
        cluster_report = WorkloadRunner(clustered).run(operations)
        assert cluster_report.lookup_hits == single_report.lookup_hits
        for operation in operations:
            if operation.kind is OpKind.LOOKUP:
                assert clustered.get(operation.key) == single.get(operation.key)

    def test_run_batched_matches_sequential_report(self, cluster_config: CLAMConfig):
        operations = build_mixed_workload(WorkloadSpec(num_keys=700, seed=2))
        sequential = WorkloadRunner(ClusterService(num_shards=4, config=cluster_config)).run(
            operations
        )
        batched = WorkloadRunner(ClusterService(num_shards=4, config=cluster_config)).run_batched(
            operations, batch_size=50
        )
        assert batched.operations == sequential.operations
        assert batched.lookups == sequential.lookups
        assert batched.lookup_hits == sequential.lookup_hits
        assert batched.inserts == sequential.inserts
        assert batched.lookup_latencies_ms == pytest.approx(sequential.lookup_latencies_ms)
        # Batching amortises per-op dispatch, so the cluster finishes sooner.
        assert batched.simulated_duration_ms < sequential.simulated_duration_ms

    def test_run_batched_requires_batch_support(self, small_clam):
        with pytest.raises(TypeError):
            WorkloadRunner(small_clam).run_batched([], batch_size=8)

    def test_runner_clock_is_cluster_ensemble(self, cluster: ClusterService):
        runner = WorkloadRunner(cluster)
        assert runner.clock is cluster.clock
        assert cluster.clock.now_ms == 0.0
        cluster.insert(b"k", b"v")
        assert cluster.clock.now_ms > 0.0


class TestClusterStats:
    def test_combined_counters_sum_over_shards(self, cluster: ClusterService):
        operations = build_mixed_workload(WorkloadSpec(num_keys=600, seed=8))
        WorkloadRunner(cluster).run(operations)
        per_shard = cluster.stats.per_shard()
        combined = cluster.stats.combined()
        for key in ("lookups", "inserts", "flash_reads", "flash_writes", "flushes"):
            assert combined[key] == pytest.approx(
                sum(counters[key] for counters in per_shard.values())
            ), key
        assert combined["clock_ms"] == pytest.approx(
            max(counters["clock_ms"] for counters in per_shard.values())
        )
        assert combined["clock_ms"] == pytest.approx(cluster.clock.now_ms)

    def test_per_shard_snapshot_is_cheap_flat_dict(self, cluster: ClusterService):
        cluster.insert(b"key", b"value")
        for counters in cluster.stats.per_shard().values():
            assert all(isinstance(v, float) for v in counters.values())
            assert "device_write_ops" in counters
            assert "clock_ms" in counters

    def test_hottest_shard_and_imbalance(self, cluster: ClusterService):
        assert cluster.stats.imbalance_factor() == 1.0
        for identifier in range(200):
            cluster.insert(fingerprint_for(identifier), b"v")
        loads = list(cluster.stats.operations_per_shard().values())
        hottest, mean = max(loads), sum(loads) / len(loads)
        assert cluster.stats.imbalance_factor() == pytest.approx(hottest / mean)
        assert cluster.stats.imbalance_factor() >= 1.0

    def test_describe_summary(self, cluster: ClusterService):
        for identifier in range(100):
            cluster.insert(fingerprint_for(identifier), b"v")
            cluster.lookup(fingerprint_for(identifier))
        summary = cluster.describe()
        assert summary["shards"] == 4.0
        assert summary["lookups"] == 100.0
        assert summary["inserts"] == 100.0
        assert summary["lookup_success_rate"] == 1.0
        assert summary["throughput_ops_per_s"] > 0


class TestHotShards:
    """The one hot-shard rule the simulator and the autoscaler share: a shard
    is hot when its load exceeds ``threshold`` times the mean load."""

    def test_a_shard_above_threshold_times_mean_is_hot(self):
        # mean 4.0, so the bar is 6.0
        assert hot_shards({"a": 10.0, "b": 1.0, "c": 1.0}, threshold=1.5) == ["a"]

    def test_a_load_exactly_at_the_bar_is_not_hot(self):
        # mean 2.0, bar 3.0: the rule is strictly greater
        assert hot_shards({"a": 3.0, "b": 1.0}, threshold=1.5) == []

    @pytest.mark.parametrize("loads", [{}, {"a": 0.0, "b": 0.0}], ids=["empty", "idle"])
    def test_an_empty_or_idle_fleet_has_no_hot_shard(self, loads):
        assert hot_shards(loads, threshold=0.5) == []

    def test_hot_shards_come_back_sorted(self):
        assert hot_shards({"z": 9.0, "m": 0.0, "a": 9.0}, threshold=1.0) == ["a", "z"]


class TestMembership:
    """Membership changes only through a :class:`KeyMigrator` migration."""

    @staticmethod
    def populate(cluster, count=200):
        keys = [fingerprint_for(i, namespace=b"membership") for i in range(count)]
        cluster.insert_batch([(key, b"v") for key in keys])
        return keys

    def test_start_add_provisions_instance_and_moves_its_keys(self, cluster):
        keys = self.populate(cluster)
        migrator = KeyMigrator(cluster)
        assert migrator.start_add() == "shard-4"
        assert cluster.num_shards == 5
        assert "shard-4" in cluster.shards
        report = migrator.run_to_completion()
        assert report.subject == "shard-4" and 0 < report.moved_fraction < 1
        assert report.keys_copied > 0
        # At RF=1 too, no key is lost and the new shard serves at once.
        assert all(cluster.lookup(key).found for key in keys)
        fresh = [fingerprint_for(i, namespace=b"after-add") for i in range(400)]
        assert "shard-4" in {cluster.shard_for(key) for key in fresh}
        for key in fresh:
            cluster.insert(key, b"v")
            assert cluster.get(key) == b"v"

    def test_start_remove_decommissions_instance(self, cluster):
        keys = self.populate(cluster)
        migrator = KeyMigrator(cluster)
        migrator.start_remove("shard-3")
        migrator.run_to_completion()
        assert cluster.num_shards == 3
        assert "shard-3" not in cluster.shards
        assert all(cluster.shard_for(key) != "shard-3" for key in keys)
        assert all(cluster.lookup(key).found for key in keys)
        assert len(cluster.clock) == 3

    def test_membership_errors(self, cluster):
        with pytest.raises(ConfigurationError):
            ClusterService(num_shards=0)
        migrator = KeyMigrator(cluster)
        with pytest.raises(ConfigurationError, match="already exists"):
            migrator.start_add("shard-0")
        for shard_id in ("shard-1", "shard-2", "shard-3"):
            migrator.start_remove(shard_id)
            migrator.run_to_completion()
        with pytest.raises(ConfigurationError):
            migrator.start_remove("shard-0")
        with pytest.raises(ConfigurationError):
            migrator.start_remove("never-existed")
        assert cluster.shard_ids == ("shard-0",) and cluster.migration is None
