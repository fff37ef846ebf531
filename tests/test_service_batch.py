"""Tests for batched execution: result equivalence and latency accounting."""

import pytest

from benchmarks.common import count_calls
from conftest import shard_op
from repro.core import CLAMConfig
from repro.core.hashing import clear_digest_cache
from repro.core.results import DeleteResult, InsertResult, LookupResult
from repro.service import ClusterService, WorkerProcesses
from repro.service import batch as batch_module
from repro.service.shard import apply_batch
from repro.workloads import (
    Operation,
    OpKind,
    WorkloadSpec,
    build_mixed_workload,
    build_update_workload,
    fingerprint_for,
)


def small_cluster(**overrides):
    config = CLAMConfig.scaled(
        num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
    )
    return ClusterService(num_shards=4, config=config, **overrides)


def probes(cluster):
    """Lookups the shards have served, fleet-wide."""
    return cluster.stats.combined()["lookups"]


class TestBatchEquivalence:
    def test_batch_results_equal_sequential_results(self):
        """Batched execution returns the same per-op records as one-at-a-time."""
        operations = build_mixed_workload(WorkloadSpec(num_keys=600, seed=11))
        sequential = small_cluster()
        batched = small_cluster()

        expected = []
        for operation in operations:
            if operation.kind is OpKind.LOOKUP:
                expected.append(sequential.lookup(operation.key))
            else:
                expected.append(sequential.insert(operation.key, operation.value))

        got = []
        for start in range(0, len(operations), 48):
            batch = batched.execute_batch(operations[start : start + 48])
            got.extend(batch.results)

        assert len(got) == len(expected)
        for op, want, have in zip(operations, expected, got):
            assert type(have) is type(want)
            assert have.key == want.key
            if op.kind is OpKind.LOOKUP:
                assert have.found == want.found
                assert have.value == want.value
            assert have.latency_ms == pytest.approx(want.latency_ms)

    def test_update_and_delete_equivalence(self):
        operations = build_update_workload(
            WorkloadSpec(num_keys=400, update_fraction=0.3, delete_fraction=0.2, seed=5)
        )
        sequential = small_cluster()
        batched = small_cluster()
        for operation in operations:
            if operation.kind is OpKind.LOOKUP:
                sequential.lookup(operation.key)
            elif operation.kind is OpKind.DELETE:
                sequential.delete(operation.key)
            else:
                sequential.update(operation.key, operation.value)
        batched.execute_batch(operations)
        # After the same logical stream, both clusters answer identically.
        for identifier in range(200):
            key = fingerprint_for(identifier, namespace=b"wl-upd-5")
            assert batched.get(key) == sequential.get(key)

    def test_per_key_order_preserved_within_batch(self):
        cluster = small_cluster()
        key = fingerprint_for(1)
        batch = cluster.execute_batch(
            [
                Operation(OpKind.INSERT, key, b"v1"),
                Operation(OpKind.UPDATE, key, b"v2"),
                Operation(OpKind.LOOKUP, key),
                Operation(OpKind.DELETE, key),
                Operation(OpKind.LOOKUP, key),
            ]
        )
        insert, update, first_lookup, delete, second_lookup = batch.results
        assert isinstance(insert, InsertResult)
        assert isinstance(update, InsertResult)
        assert isinstance(first_lookup, LookupResult)
        assert first_lookup.value == b"v2"
        assert isinstance(delete, DeleteResult)
        assert isinstance(second_lookup, LookupResult)
        assert not second_lookup.found


class TestReplicaSemantics:
    """What a replicated read returns (the BatchExecutor docstring), tested
    where it is implemented: once, for every entry point and deployment."""

    @pytest.mark.parametrize(
        "workers", [None, WorkerProcesses()], ids=["ClusterService", "WorkerProcesses"]
    )
    def test_lookup_batch_reads_through_and_repairs(self, workers):
        """Regression: batches used to return the first replica's miss."""
        with small_cluster(replication_factor=2, workers=workers) as cluster:
            keys = [fingerprint_for(i, namespace=b"read-through") for i in range(120)]
            cluster.insert_batch([(key, b"v-" + key) for key in keys])
            primary = cluster.shard_for(keys[0])
            dropped = [key for key in keys if cluster.shard_for(key) == primary]
            # Lose the primary's copies: a reopened volatile shard comes back empty.
            cluster.reopen_shard(primary)
            assert not any(
                shard_op(cluster.shards[primary], OpKind.LOOKUP, key).found for key in dropped
            )

            results = cluster.lookup_batch(keys)
            assert [result.value for result in results] == [b"v-" + key for key in keys]
            assert cluster.read_repairs == len(dropped)
            assert all(
                shard_op(cluster.shards[primary], OpKind.LOOKUP, key).found for key in dropped
            )
            # Repaired: the next pass is clean hits, one probe per key.
            before = probes(cluster)
            assert all(result.found for result in cluster.lookup_batch(keys))
            assert probes(cluster) - before == len(keys)
            assert cluster.read_repairs == len(dropped)

    def test_a_miss_is_every_live_replicas_miss(self):
        cluster = small_cluster(replication_factor=2)
        cluster.insert(b"present", b"v")
        before = probes(cluster)
        assert cluster.lookup(b"present").found
        assert probes(cluster) - before == 1  # clean hit: no extra probe
        assert not cluster.lookup(b"absent").found
        assert probes(cluster) - before == 3  # both replicas had to say no
        # With one replica down the survivor's miss is the answer.
        primary, secondary = cluster.replicas_for(b"absent")
        cluster.fail_shard(secondary)
        cluster.record_shard_error(secondary)
        miss = cluster.lookup_batch([b"absent"])[0]
        assert not miss.found and probes(cluster) - before == 4
        assert cluster.read_repairs == 0

    def test_single_replica_never_probes_twice(self):
        cluster = small_cluster()
        before = probes(cluster)
        assert not cluster.lookup(b"absent").found
        assert not cluster.lookup_batch([b"absent"])[0].found
        assert probes(cluster) - before == 2

    def test_first_hit_in_preference_order_wins_and_repairs_earlier_misses(self):
        cluster = small_cluster(replication_factor=3)
        key = fingerprint_for(7, namespace=b"third-replica")
        first, second, third = cluster.replicas_for(key)
        cluster.insert(key, b"v")
        shard_op(cluster.shards[first], OpKind.DELETE, key)
        shard_op(cluster.shards[second], OpKind.DELETE, key)
        assert cluster.lookup(key).value == b"v"  # served by the third replica
        assert cluster.read_repairs == 2
        assert shard_op(cluster.shards[first], OpKind.LOOKUP, key).found
        assert shard_op(cluster.shards[second], OpKind.LOOKUP, key).found

    def test_single_and_batch_lookups_repair_alike(self):
        """One key at a time and one ``lookup_batch`` over the same divergence:
        the same values, the same repairs, and every shard left holding the
        same contents, whichever replicas silently lost a copy."""
        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
        )
        keys = [fingerprint_for(i, namespace=b"repair-parity") for i in range(300)]

        def diverged():
            cluster = ClusterService(num_shards=5, config=config, replication_factor=3)
            cluster.insert_batch([(key, b"v-" + key) for key in keys])
            for i, key in enumerate(keys):
                replicas = cluster.replicas_for(key)
                # First replica, second replica, every replica, or none.
                for shard_id in (replicas[:1], replicas[1:2], replicas, ())[i % 4]:
                    shard_op(cluster.shards[shard_id], OpKind.DELETE, key)
            return cluster

        def contents(cluster):
            return {
                shard_id: shard.clam.snapshot_items()
                for shard_id, shard in cluster.shards.items()
            }

        singles, batched = diverged(), diverged()
        single_values = [singles.lookup(key).value for key in keys]
        batch_values = [result.value for result in batched.lookup_batch(keys)]
        assert single_values == batch_values
        assert single_values == [None if i % 4 == 2 else b"v-" + key for i, key in enumerate(keys)]
        # Only a first-replica loss is repaired: a later replica's is never read.
        assert singles.read_repairs == batched.read_repairs == len(keys) // 4
        assert contents(singles) == contents(batched)


class TestBatchAccounting:
    def test_empty_batch(self):
        batch = small_cluster().execute_batch([])
        assert batch.operations == 0
        assert batch.results == []
        assert batch.makespan_ms == 0.0

    def test_per_shard_breakdown_sums_to_batch(self):
        cluster = small_cluster()
        operations = build_mixed_workload(WorkloadSpec(num_keys=300, seed=3))
        batch = cluster.execute_batch(operations)
        assert batch.operations == len(operations)
        assert sum(s.operations for s in batch.per_shard.values()) == len(operations)
        assert sum(s.lookups for s in batch.per_shard.values()) == sum(
            1 for op in operations if op.kind is OpKind.LOOKUP
        )
        assert batch.busy_ms == pytest.approx(sum(s.busy_ms for s in batch.per_shard.values()))
        assert batch.dispatch_ms == pytest.approx(
            sum(s.dispatch_ms for s in batch.per_shard.values())
        )
        assert batch.routing_ms == pytest.approx(
            sum(s.routing_ms for s in batch.per_shard.values())
        )

    def test_makespan_is_slowest_shard_all_costs_in(self):
        cluster = small_cluster()
        operations = build_mixed_workload(WorkloadSpec(num_keys=200, seed=9))
        batch = cluster.execute_batch(operations)
        slowest = max(s.total_ms for s in batch.per_shard.values())
        assert batch.makespan_ms == pytest.approx(slowest)
        # Routing is charged per-operation on the owning shard.
        assert batch.routing_ms == pytest.approx(
            batch_module.DEFAULT_ROUTING_COST_MS * len(operations)
        )
        # Parallel shards: completing when the slowest finishes beats summing.
        assert batch.makespan_ms < batch.busy_ms + batch.dispatch_ms + batch.routing_ms

    def test_dispatch_amortisation(self):
        cluster = small_cluster()
        operations = [Operation(OpKind.INSERT, fingerprint_for(i), b"v") for i in range(64)]
        batch = cluster.execute_batch(operations)
        # Dispatch paid once per shard touched, not once per operation.
        assert batch.shards_touched <= cluster.num_shards
        assert batch.dispatch_ms == pytest.approx(
            batch.shards_touched * batch_module.DEFAULT_DISPATCH_OVERHEAD_MS
        )
        assert batch.dispatch_ms_unbatched == pytest.approx(
            len(operations) * batch_module.DEFAULT_DISPATCH_OVERHEAD_MS
        )
        assert batch.dispatch_saved_ms > 0

    def test_shard_clocks_advance_by_sub_batch_time(self):
        cluster = small_cluster()
        before = {sid: clam.clock.now_ms for sid, clam in cluster.shards.items()}
        batch = cluster.execute_batch(
            [Operation(OpKind.INSERT, fingerprint_for(i), b"v") for i in range(32)]
        )
        for shard_id, stats in batch.per_shard.items():
            elapsed = cluster.shards[shard_id].clock.now_ms - before[shard_id]
            assert elapsed == pytest.approx(stats.total_ms)


class TestRetryState:
    """Retry state exists only from the moment a unit is left behind (the
    ``BatchExecutor`` docstring says when)."""

    @pytest.fixture
    def created(self, monkeypatch):
        made = []

        class Counted(batch_module._Retry):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(batch_module, "_Retry", Counted)
        return made

    @staticmethod
    def seeded_cluster():
        cluster = small_cluster(replication_factor=2)
        keys = [fingerprint_for(i, namespace=b"retry-state") for i in range(60)]
        cluster.insert_batch([(key, b"v") for key in keys])
        return cluster, keys

    def test_none_while_every_unit_completes_on_its_first_shard(self, created):
        cluster, keys = self.seeded_cluster()
        cluster.execute_batch(
            [Operation(OpKind.UPDATE, key, b"w") for key in keys[:20]]
            + [Operation(OpKind.DELETE, key) for key in keys[20:30]]
            + [Operation(OpKind.LOOKUP, key) for key in keys[30:]]
        )
        assert all(result.found for result in cluster.lookup_batch(keys[:20] + keys[30:]))
        assert cluster.lookup(keys[0]).value == b"w"
        assert created == []

    def test_one_miss_at_two_replicas_creates_exactly_one(self, created):
        cluster, keys = self.seeded_cluster()
        results = cluster.lookup_batch(keys + [b"absent"])
        assert [result.found for result in results] == [True] * 60 + [False]
        (retry,) = created
        first, second = cluster.replicas_for(b"absent")
        assert retry.index == 60 and retry.primary and not retry.failed
        assert retry.attempted == {first, second}
        assert retry.missed == [first, second]
        assert cluster.last_batch.retried_operations == 0  # read through, not failed over

    def test_a_failed_shard_leaves_one_per_unit_it_did_not_run(self, created):
        cluster, keys = self.seeded_cluster()
        victim = cluster.shard_for(keys[0])
        served = [key for key in keys if cluster.shard_for(key) == victim]
        cluster.fail_shard(victim)  # crash-stop: its sub-batch fails at the first unit
        assert all(result.found for result in cluster.lookup_batch(keys))
        assert sorted(retry.index for retry in created) == [keys.index(key) for key in served]
        assert all(retry.failed is False and retry.attempted > {victim} for retry in created)
        assert cluster.last_batch.retried_operations == len(served)
        assert cluster.last_batch.failed_shards == [victim]


def python_frames_outside_shards(call, *args) -> int:
    """Exact number of Python frames ``call(*args)`` enters, the shards' own
    work (everything below ``apply_batch``) excluded."""
    return count_calls(call, *args, stop_below=apply_batch.__code__)[0]


class TestCallBudget:
    """The service layer in front of the shards costs a bounded number of
    Python frames per key: a per-key object or helper call creeping back
    into the routing, dispatch or gather loop shows here as an exact count
    (13.2 and 16.3 frames per key before the batch became columnar)."""

    @staticmethod
    def cluster(**overrides):
        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=64, incarnations_per_table=4
        )
        return ClusterService(num_shards=2, config=config, **overrides)

    def test_warm_lookup_batch_at_most_four_frames_per_key(self):
        clear_digest_cache()
        cluster = self.cluster()
        keys = [fingerprint_for(i, namespace=b"budget") for i in range(128)]
        cluster.insert_batch([(key, b"v") for key in keys[::2]])
        cluster.lookup_batch(keys)  # warm: digests cached, ring words and the table in place
        frames = python_frames_outside_shards(cluster.lookup_batch, keys)
        assert frames / len(keys) <= 4, frames

    def test_insert_batch_at_two_replicas_at_most_seven_frames_per_key(self):
        clear_digest_cache()
        cluster = self.cluster(replication_factor=2)
        items = [(fingerprint_for(i, namespace=b"budget"), b"value") for i in range(128)]
        cluster.insert_batch(items)
        frames = python_frames_outside_shards(cluster.insert_batch, items)
        assert frames / len(items) <= 7, frames
