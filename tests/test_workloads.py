"""Tests for key generators, workload builders and the workload runner."""

import pytest

from repro.baselines import DRAMHashIndex
from repro.core import CLAM, CLAMConfig
from repro.workloads import (
    OpKind,
    WorkloadRunner,
    WorkloadSpec,
    ZipfKeyGenerator,
    build_lookup_then_insert_workload,
    build_mixed_workload,
    build_update_workload,
    fingerprint_for,
)


class TestKeyGenerators:
    def test_fingerprint_deterministic(self):
        assert fingerprint_for(42) == fingerprint_for(42)
        assert fingerprint_for(42) != fingerprint_for(43)

    def test_fingerprint_length(self):
        assert len(fingerprint_for(1, length=8)) == 8
        with pytest.raises(ValueError):
            fingerprint_for(1, length=0)

    def test_zipf_generator_skews_towards_hot_keys(self):
        generator = ZipfKeyGenerator(key_space=1000, skew=1.2, seed=3)
        keys = list(generator.keys(2000))
        counts = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        most_common = max(counts.values())
        assert most_common > len(keys) / 100  # hot key far above uniform share

    def test_invalid_generators_rejected(self):
        with pytest.raises(ValueError):
            ZipfKeyGenerator(key_space=10, skew=0)


class TestWorkloadSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_keys": 0},
            {"target_lsr": 1.5},
            {"lookup_fraction": -0.1},
            {"update_fraction": 2.0},
            {"value_size": -1},
            {"recency_window": 0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)


class TestWorkloadBuilders:
    def test_lookup_then_insert_alternates(self):
        operations = build_lookup_then_insert_workload(WorkloadSpec(num_keys=100, seed=1))
        assert len(operations) == 200
        kinds = [op.kind for op in operations[:6]]
        assert kinds == [
            OpKind.LOOKUP,
            OpKind.INSERT,
            OpKind.LOOKUP,
            OpKind.INSERT,
            OpKind.LOOKUP,
            OpKind.INSERT,
        ]

    def test_lookup_then_insert_achieves_target_lsr(self):
        """Running the workload against an exact in-memory index must produce a
        hit rate close to the requested LSR."""
        spec = WorkloadSpec(num_keys=4000, target_lsr=0.4, recency_window=1000, seed=2)
        operations = build_lookup_then_insert_workload(spec)
        report = WorkloadRunner(DRAMHashIndex()).run(operations)
        assert report.lookup_success_rate == pytest.approx(0.4, abs=0.05)

    def test_zero_lsr_means_all_misses(self):
        spec = WorkloadSpec(num_keys=500, target_lsr=0.0, seed=3)
        operations = build_lookup_then_insert_workload(spec)
        report = WorkloadRunner(DRAMHashIndex()).run(operations)
        assert report.lookup_success_rate == 0.0

    def test_workloads_deterministic_given_seed(self):
        spec = WorkloadSpec(num_keys=100, seed=9)
        assert build_lookup_then_insert_workload(spec) == build_lookup_then_insert_workload(spec)

    def test_mixed_workload_fraction(self):
        spec = WorkloadSpec(num_keys=4000, lookup_fraction=0.7, seed=4)
        operations = build_mixed_workload(spec)
        lookups = sum(1 for op in operations if op.kind is OpKind.LOOKUP)
        assert lookups / len(operations) == pytest.approx(0.7, abs=0.05)

    def test_mixed_workload_pure_inserts(self):
        spec = WorkloadSpec(num_keys=200, lookup_fraction=0.0, seed=4)
        operations = build_mixed_workload(spec)
        assert all(op.kind is OpKind.INSERT for op in operations)

    def test_update_workload_contains_updates(self):
        spec = WorkloadSpec(num_keys=2000, update_fraction=0.4, lookup_fraction=0.5, seed=5)
        operations = build_update_workload(spec)
        updates = sum(1 for op in operations if op.kind is OpKind.UPDATE)
        inserts = sum(1 for op in operations if op.kind is OpKind.INSERT)
        assert updates > 0
        assert updates / (updates + inserts) == pytest.approx(0.4, abs=0.07)

    def test_update_workload_can_contain_deletes(self):
        spec = WorkloadSpec(
            num_keys=2000, update_fraction=0.5, delete_fraction=0.5, lookup_fraction=0.0, seed=6
        )
        operations = build_update_workload(spec)
        assert any(op.kind is OpKind.DELETE for op in operations)


class TestWorkloadRunner:
    def test_counts_and_latencies_recorded(self):
        spec = WorkloadSpec(num_keys=200, target_lsr=0.5, seed=7)
        operations = build_lookup_then_insert_workload(spec)
        clam = CLAM(CLAMConfig.scaled(num_super_tables=2, buffer_capacity_items=32), storage="intel-ssd")
        report = WorkloadRunner(clam).run(operations)
        assert report.operations == len(operations)
        assert report.lookups == 200
        assert report.inserts == 200
        assert len(report.lookup_latencies_ms) == 200
        assert report.simulated_duration_ms > 0
        assert report.throughput_ops_per_second > 0
        assert report.mean_latency_per_operation_ms > 0

    def test_max_operations_limit(self):
        operations = build_lookup_then_insert_workload(WorkloadSpec(num_keys=100, seed=8))
        report = WorkloadRunner(DRAMHashIndex()).run(operations, max_operations=50)
        assert report.operations == 50

    def test_flash_read_histogram_fractions_sum_to_one(self):
        spec = WorkloadSpec(num_keys=500, target_lsr=0.4, seed=9)
        operations = build_lookup_then_insert_workload(spec)
        clam = CLAM(CLAMConfig.scaled(num_super_tables=2, buffer_capacity_items=32), storage="intel-ssd")
        report = WorkloadRunner(clam).run(operations)
        histogram = report.flash_reads_histogram()
        assert sum(histogram.values()) == pytest.approx(1.0)

    def test_summaries_available(self):
        operations = build_lookup_then_insert_workload(WorkloadSpec(num_keys=100, seed=10))
        report = WorkloadRunner(DRAMHashIndex()).run(operations)
        assert report.lookup_summary().count == 100
        assert report.insert_summary().count == 100

    def test_run_dispatches_operations_in_order(self):
        calls = []

        class RecordingIndex(DRAMHashIndex):
            def lookup(self, key):
                calls.append(OpKind.LOOKUP)
                return super().lookup(key)

            def insert(self, key, value):
                calls.append(OpKind.INSERT)
                return super().insert(key, value)

        operations = build_mixed_workload(WorkloadSpec(num_keys=50, seed=3))
        report = WorkloadRunner(RecordingIndex()).run(operations, max_operations=40)
        assert calls == [op.kind for op in operations[:40]]
        assert report.operations == 40

    def test_run_batched_dispatches_fixed_size_batches(self):
        from repro.service import ClusterService

        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
        )
        cluster = ClusterService(num_shards=2, config=config)
        operations = build_mixed_workload(WorkloadSpec(num_keys=100, seed=5))
        batches = []
        execute_batch = cluster.execute_batch

        def recording_execute_batch(pending):
            batches.append(list(pending))
            return execute_batch(pending)

        cluster.execute_batch = recording_execute_batch
        report = WorkloadRunner(cluster).run_batched(operations, batch_size=32)
        assert [len(batch) for batch in batches[:-1]] == [32] * (len(batches) - 1)
        assert 0 < len(batches[-1]) <= 32
        assert [op for batch in batches for op in batch] == operations
        assert report.operations == len(operations)
        with pytest.raises(ValueError):
            WorkloadRunner(cluster).run_batched(operations, batch_size=0)


class TestRunnerFailover:
    """A cluster-backed index losing a shard between runs of one workload."""

    def test_a_shard_killed_mid_workload_fails_over(self):
        """A shard crashed between two batched runs surfaces as failover, not
        as an untyped crash, and every operation is still reported."""
        from repro.service import ClusterService

        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
        )
        cluster = ClusterService(num_shards=3, config=config, replication_factor=2)
        operations = build_update_workload(WorkloadSpec(num_keys=120, seed=9))
        runner = WorkloadRunner(cluster)
        before = runner.run_batched(operations[:32], batch_size=16)
        cluster.fail_shard("shard-1")
        after = runner.run_batched(operations[32:], batch_size=16)
        assert before.operations + after.operations == len(operations)
