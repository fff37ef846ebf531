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


class TestRunnerHooks:
    """The failure-schedule hook points on the workload runner."""

    def make_index(self):
        return DRAMHashIndex()

    def test_before_operation_fires_in_order(self):
        operations = build_mixed_workload(WorkloadSpec(num_keys=50, seed=3))
        seen = []
        WorkloadRunner(self.make_index()).run(
            operations,
            before_operation=lambda index, op: seen.append((index, op.kind)),
        )
        assert [index for index, _kind in seen] == list(range(len(operations)))
        assert [kind for _index, kind in seen] == [op.kind for op in operations]

    def test_before_operation_respects_max_operations(self):
        operations = build_mixed_workload(WorkloadSpec(num_keys=50, seed=3))
        seen = []
        WorkloadRunner(self.make_index()).run(
            operations,
            max_operations=7,
            before_operation=lambda index, op: seen.append(index),
        )
        assert seen == list(range(7))

    def test_before_batch_fires_per_batch(self):
        from repro.core import CLAMConfig
        from repro.service import ClusterService

        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
        )
        cluster = ClusterService(num_shards=2, config=config)
        operations = build_mixed_workload(WorkloadSpec(num_keys=100, seed=5))
        batches = []
        WorkloadRunner(cluster).run_batched(
            operations,
            batch_size=32,
            before_batch=lambda index, ops: batches.append((index, len(ops))),
        )
        assert [index for index, _size in batches] == list(range(len(batches)))
        assert sum(size for _index, size in batches) == len(operations)
        assert all(size <= 32 for _index, size in batches)

    def test_hook_can_kill_a_shard_mid_run(self):
        """A hook crashing a shard mid-workload surfaces as failover, not as
        an untyped crash (the bench_failover pattern in miniature)."""
        from repro.core import CLAMConfig
        from repro.service import ClusterService

        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
        )
        cluster = ClusterService(num_shards=3, config=config, replication_factor=2)
        operations = build_update_workload(WorkloadSpec(num_keys=120, seed=9))

        def killer(batch_index, _ops):
            if batch_index == 2:
                cluster.fail_shard("shard-1")

        report = WorkloadRunner(cluster).run_batched(
            operations, batch_size=16, before_batch=killer
        )
        assert report.operations == len(operations)
