"""Tests for the process-per-shard cluster (repro.service.parallel).

The two contracts under test:

* **Bit-identical results** — the parallel deployment must produce exactly
  the result records, merged counters and ensemble clock readings of the
  in-process :class:`ClusterService` on the same operation stream.
* **Worker death is a device failure** — killing a worker behaves like a
  crash-stopped device: typed errors, replica failover, hinted handoff,
  supervisor detection, restart with crash recovery, and zero lost
  acknowledged writes at ``replication_factor >= 2``.
"""

import pytest

from repro.core import CLAMConfig
from repro.core.errors import (
    ClusterCloseError,
    ConfigurationError,
    DeviceFailedError,
    ShardUnavailableError,
    WorkerDiedError,
)
from repro.core.hashing import to_key_bytes
from repro.service import (
    AutoscaleConfig,
    AutoscalePolicy,
    ClusterService,
    KeyMigrator,
    ParallelClusterService,
)
from repro.service.shard import LocalShard
from repro.telemetry.schema import validate_snapshot
from repro.workloads.workload import Operation, OpKind


@pytest.fixture
def cluster_config() -> CLAMConfig:
    return CLAMConfig.scaled(
        num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
    )


@pytest.fixture
def telemetry_config() -> CLAMConfig:
    return CLAMConfig.scaled(
        num_super_tables=4,
        buffer_capacity_items=32,
        incarnations_per_table=4,
        telemetry_enabled=True,
    )


def drive_mixed(cluster):
    """A deterministic mixed workload: single ops and batches, all op kinds."""
    records = []
    records.append(cluster.insert(b"single-1", b"value-1"))
    records.append(cluster.insert(b"single-2", b"value-2"))
    records.append(cluster.lookup(b"single-1"))
    records.append(cluster.lookup(b"never-written"))
    inserts = [
        Operation(OpKind.INSERT, b"key-%d" % i, b"val-%d" % i) for i in range(160)
    ]
    records.extend(cluster.execute_batch(inserts).results)
    mixed = []
    for i in range(160):
        if i % 3 == 0:
            mixed.append(Operation(OpKind.LOOKUP, b"key-%d" % i))
        elif i % 3 == 1:
            mixed.append(Operation(OpKind.UPDATE, b"key-%d" % i, b"new-%d" % i))
        else:
            mixed.append(Operation(OpKind.DELETE, b"key-%d" % i))
    batch = cluster.execute_batch(mixed)
    records.extend(batch.results)
    records.append(cluster.delete(b"single-2"))
    records.append(cluster.lookup(b"single-2"))
    return records, batch


class TestBitIdenticalParity:
    """Process mode must reproduce the in-process cluster's exact outputs."""

    @pytest.mark.parametrize("replication_factor", [1, 2])
    def test_results_counters_and_clocks_match(self, cluster_config, replication_factor):
        reference = ClusterService(
            num_shards=4, config=cluster_config, replication_factor=replication_factor
        )
        expected, expected_batch = drive_mixed(reference)

        with ParallelClusterService(
            num_shards=4, config=cluster_config, replication_factor=replication_factor
        ) as parallel:
            actual, actual_batch = drive_mixed(parallel)
            assert len(actual) == len(expected)
            for position, (got, want) in enumerate(zip(actual, expected)):
                assert got == want, f"record {position} diverged: {got!r} != {want!r}"
            # Merged counters cover latency totals, flash I/O, flush counts …
            assert parallel.stats.combined() == reference.stats.combined()
            # … and the simulated time bases agree to the bit.
            assert parallel.clock.now_ms == reference.clock.now_ms
            assert actual_batch.makespan_ms == expected_batch.makespan_ms
            assert actual_batch.busy_ms == expected_batch.busy_ms
            assert actual_batch.dispatch_ms == expected_batch.dispatch_ms

    def test_hash_once_digests_cross_the_wire(self, cluster_config):
        """Routing digests are serialised with the key, not recomputed."""
        with ParallelClusterService(num_shards=4, config=cluster_config) as parallel:
            reference = ClusterService(num_shards=4, config=cluster_config)
            keys = [b"fp-%d" % i for i in range(64)]
            parallel.insert_batch([(k, b"v") for k in keys])
            reference.insert_batch([(k, b"v") for k in keys])
            assert [r.found for r in parallel.lookup_batch(keys)] == [
                r.found for r in reference.lookup_batch(keys)
            ]
            assert parallel.stats.combined() == reference.stats.combined()


    def test_remote_shard_single_ops_answer_what_a_local_shard_does(self, cluster_config):
        """Directed one-shard operations (hint replay, recovery, migration)
        take keys of any supported type on both sides of the process
        boundary and mean the same key by them."""
        keys = [5, 0x0102, "abc", memoryview(b"mv-key"), bytearray(b"ba-key"), b"plain"]
        local = LocalShard("shard-0", cluster_config, "intel-ssd")
        with ParallelClusterService(num_shards=1, config=cluster_config) as parallel:
            (remote,) = parallel.shards.values()
            for shard in (local, remote):
                for key in keys:
                    shard.insert(key, b"value-of-%r" % to_key_bytes(key))
            for key in keys:
                got, want = remote.lookup(key), local.lookup(key)
                assert got == want
                assert got.key == to_key_bytes(key)
                assert got.value == b"value-of-%r" % to_key_bytes(key)
            assert remote.delete(keys[0]) == local.delete(keys[0])
            assert remote.lookup(keys[0]) == local.lookup(keys[0])


    def test_a_worker_builds_its_shard_from_the_in_process_spec(self, cluster_config):
        """A worker and the in-process cluster build one :class:`LocalShard`
        from one ``_shard_spec``: the worker's, reached over the wire,
        reports the counters the in-process one does."""
        spec = ClusterService(num_shards=1, config=cluster_config)._shard_spec("shard-0")
        in_process = LocalShard("shard-0", *spec)
        with ParallelClusterService(num_shards=1, config=cluster_config) as parallel:
            (in_worker,) = parallel.shards.values()
            assert in_worker._spec == spec
            for shard in (in_process, in_worker):
                shard.insert(b"key", b"value")
                shard.lookup(b"key")
            assert in_worker.counters() == in_process.counters()


class TestWorkerFailure:
    def test_dead_worker_raises_worker_died_on_next_frame(self, cluster_config):
        with ParallelClusterService(num_shards=2, config=cluster_config) as cluster:
            shard_id = cluster.shard_for(b"key")
            shard = cluster.shards[shard_id]
            cluster.kill_worker(shard_id)
            assert not shard.alive
            with pytest.raises(WorkerDiedError):
                shard.lookup(b"key")
            # WorkerDiedError *is* a DeviceFailedError: the whole failure
            # machinery treats it like a crashed device.
            assert issubclass(WorkerDiedError, DeviceFailedError)

    def test_kill_at_rf2_loses_no_acknowledged_write(self, cluster_config):
        with ParallelClusterService(
            num_shards=4, config=cluster_config, replication_factor=2
        ) as cluster:
            keys = [b"key-%d" % i for i in range(240)]
            for key in keys:
                cluster.insert(key, b"val-" + key)
            victim = cluster.shard_for(keys[0])
            cluster.kill_worker(victim)
            batch = cluster.execute_batch(
                [Operation(OpKind.LOOKUP, key) for key in keys]
            )
            assert all(r is not None and r.found for r in batch.results)
            assert victim in batch.failed_shards
            assert batch.retried_operations > 0
            assert victim in cluster.down_shard_ids

    def test_kill_at_rf1_raises_typed_shard_unavailable(self, cluster_config):
        with ParallelClusterService(num_shards=2, config=cluster_config) as cluster:
            cluster.insert(b"key", b"value")
            victim = cluster.shard_for(b"key")
            cluster.kill_worker(victim)
            # First frame marks the error; with failure_threshold=1 the shard
            # goes down, so no live replica remains for its keys.
            with pytest.raises((ShardUnavailableError, DeviceFailedError)):
                cluster.lookup(b"key")
            with pytest.raises(ShardUnavailableError):
                cluster.lookup(b"key")

    def test_supervisor_detects_death_without_traffic(self, cluster_config):
        with ParallelClusterService(
            num_shards=3, config=cluster_config, replication_factor=2
        ) as cluster:
            cluster.insert(b"key", b"value")
            victim = cluster.shard_for(b"key")
            assert cluster.check_workers() == []
            cluster.kill_worker(victim)
            assert cluster.check_workers() == [victim]
            assert victim in cluster.down_shard_ids
            # Routing now avoids the dead worker; the key still serves.
            assert cluster.lookup(b"key").found
            kinds = [event.kind for event in cluster.events]
            assert "worker_killed" in kinds and "worker_died" in kinds
            assert cluster.check_workers() == []  # already marked down

    def test_restart_rejoins_and_replays_hints(self, cluster_config):
        with ParallelClusterService(
            num_shards=3, config=cluster_config, replication_factor=2
        ) as cluster:
            keys = [b"key-%d" % i for i in range(120)]
            for key in keys:
                cluster.insert(key, b"old-" + key)
            victim = cluster.shard_for(keys[0])
            cluster.kill_worker(victim)
            cluster.check_workers()
            # Writes issued while the worker is down must reach it on restart
            # via hinted handoff (a volatile worker comes back empty).
            missed = [key for key in keys if victim in cluster.replicas_for(key)]
            assert missed, "victim should replicate some keys"
            for key in missed:
                cluster.insert(key, b"new-" + key)
            report = cluster.restart_worker(victim)
            assert report is None  # volatile storage: no crash recovery
            assert victim not in cluster.down_shard_ids
            assert cluster.shards[victim].alive
            assert cluster.hinted_handoffs >= len(missed)
            # The replacement answers with the post-crash values directly.
            replacement = cluster.shards[victim]
            for key in missed:
                result = replacement.lookup(key)
                assert result.found and result.value == b"new-" + key
            kinds = [event.kind for event in cluster.events]
            assert "worker_restarted" in kinds and "hinted_handoff_replay" in kinds

    def test_injected_device_fault_crosses_the_wire(self, cluster_config):
        """fail_shard/heal_shard relay fault injection into the worker."""
        with ParallelClusterService(
            num_shards=3, config=cluster_config, replication_factor=2
        ) as cluster:
            cluster.insert(b"key", b"value")
            victim = cluster.shard_for(b"key")
            cluster.fail_shard(victim, mode="crash")
            assert cluster.shards[victim].alive  # process lives; device is dead
            assert cluster.lookup(b"key").found  # served by the other replica
            assert victim in cluster.down_shard_ids
            cluster.heal_shard(victim)
            assert victim not in cluster.down_shard_ids
            assert cluster.lookup(b"key").found

    def test_unknown_fault_mode_rejected_across_the_wire(self, cluster_config):
        with ParallelClusterService(num_shards=2, config=cluster_config) as cluster:
            with pytest.raises(ConfigurationError, match="unknown fault mode"):
                cluster.fail_shard("shard-0", mode="meteor-strike")

    def test_worker_build_failure_surfaces_as_configuration_error(self, cluster_config):
        with pytest.raises(ConfigurationError, match="failed to start"):
            ParallelClusterService(
                num_shards=2, config=cluster_config, storage="no-such-profile"
            )


class TestPersistentWorkers:
    def test_clean_close_and_reopen(self, cluster_config, tmp_path):
        data_dir = str(tmp_path / "cluster")
        with ParallelClusterService(
            num_shards=2,
            config=cluster_config,
            storage="persistent",
            data_dir=data_dir,
            replication_factor=2,
        ) as cluster:
            for i in range(80):
                cluster.insert(b"pkey-%d" % i, b"pval-%d" % i)
        with ParallelClusterService(
            num_shards=2,
            config=cluster_config,
            storage="persistent",
            data_dir=data_dir,
            replication_factor=2,
        ) as reopened:
            for i in range(80):
                result = reopened.lookup(b"pkey-%d" % i)
                assert result.found and result.value == b"pval-%d" % i

    def test_sigkill_runs_crash_recovery_on_restart(self, cluster_config, tmp_path):
        data_dir = str(tmp_path / "cluster")
        with ParallelClusterService(
            num_shards=2,
            config=cluster_config,
            storage="persistent",
            data_dir=data_dir,
            replication_factor=2,
        ) as cluster:
            keys = [b"pkey-%d" % i for i in range(200)]
            for key in keys:
                cluster.insert(key, b"payload-" + key)
            victim = cluster.shard_for(keys[0])
            cluster.kill_worker(victim)  # SIGKILL: no flush, no checkpoint
            report = cluster.restart_worker(victim)
            assert report is not None and not report.clean_shutdown
            assert report.pages_scanned > 0
            # RF=2: anything the dead worker's DRAM buffer lost is read-
            # repaired or hint-replayed from the surviving replica.
            for key in keys:
                result = cluster.lookup(key)
                assert result.found and result.value == b"payload-" + key


class TestTelemetryAndLifecycle:
    def test_snapshot_merges_worker_registries_and_validates(self, telemetry_config):
        reference = ClusterService(num_shards=3, config=telemetry_config)
        with ParallelClusterService(num_shards=3, config=telemetry_config) as cluster:
            for target in (reference, cluster):
                for i in range(90):
                    target.insert(b"key-%d" % i, b"val")
                for i in range(90):
                    target.lookup(b"key-%d" % i)
            snapshot = cluster.telemetry_snapshot()
            validate_snapshot(snapshot)
            assert sorted(snapshot["per_shard"]) == ["shard-0", "shard-1", "shard-2"]
            # Worker registries cross the wire losslessly: the merged view is
            # bit-identical to the in-process cluster's.
            expected = reference.telemetry_snapshot()
            assert snapshot["per_shard"] == expected["per_shard"]
            assert snapshot["registry"] == expected["registry"]

    def test_autoscaler_sees_worker_load(self, cluster_config):
        """Regression: the load signal was read off ``shard.telemetry``,
        which a worker proxy never had, so a parallel cluster looked idle.
        It is each worker's operation counters now, telemetry on or off."""
        with ParallelClusterService(num_shards=2, config=cluster_config) as cluster:
            migrator = KeyMigrator(cluster)
            config = AutoscaleConfig(evaluate_every=1, cooldown=0, hot_shard_threshold=1.01)
            policy = AutoscalePolicy(cluster, migrator, config)
            baseline = cluster.stats.operations_per_shard()
            assert sorted(baseline) == ["shard-0", "shard-1"]
            cluster.insert_batch([(b"key-%d" % i, b"val") for i in range(120)])
            cluster.lookup_batch([b"key-%d" % i for i in range(120)])
            loads = cluster.stats.operations_per_shard()
            assert all(loads[shard] - baseline[shard] > 0 for shard in baseline)
            assert sum(loads.values()) - sum(baseline.values()) == 240
            hottest = max(loads, key=lambda shard: loads[shard] - baseline[shard])
            decision = policy.tick(1)
            assert decision.action == "scale-out" and decision.hot_shards == (hottest,)
            migrator.run_to_completion()
            assert len(cluster.shards) == 3

    def test_stats_skip_dead_workers(self, cluster_config):
        with ParallelClusterService(
            num_shards=3, config=cluster_config, replication_factor=2
        ) as cluster:
            cluster.insert_batch([(b"key-%d" % i, b"val") for i in range(30)])
            cluster.kill_worker("shard-1")
            per_shard = cluster.stats.per_shard()
            assert sorted(per_shard) == ["shard-0", "shard-2"]
            combined = cluster.stats.combined()
            assert combined["inserts"] == sum(c["inserts"] for c in per_shard.values())
            summary = cluster.describe()
            assert summary["inserts"] == combined["inserts"]
            assert summary["shards"] == 3.0

    def test_snapshot_skips_dead_workers(self, telemetry_config):
        with ParallelClusterService(
            num_shards=3, config=telemetry_config, replication_factor=2
        ) as cluster:
            cluster.insert(b"key", b"value")
            cluster.kill_worker("shard-1")
            snapshot = cluster.telemetry_snapshot()
            validate_snapshot(snapshot)
            assert "shard-1" not in snapshot["per_shard"]

    def test_close_is_idempotent(self, cluster_config):
        cluster = ParallelClusterService(num_shards=2, config=cluster_config)
        cluster.insert(b"key", b"value")
        cluster.close()
        cluster.close()
        for shard in cluster.shards.values():
            assert not shard.alive
            assert shard.process.exitcode == 0

    def test_close_reaps_killed_workers(self, cluster_config):
        cluster = ParallelClusterService(
            num_shards=3, config=cluster_config, replication_factor=2
        )
        cluster.kill_worker("shard-0")
        cluster.close()  # must not raise: dead workers are just reaped
        for shard in cluster.shards.values():
            assert not shard.process.is_alive()

    def test_remove_shard_shuts_worker_down(self, cluster_config):
        with ParallelClusterService(
            num_shards=3, config=cluster_config
        ) as cluster:
            shard = cluster.shards["shard-2"]
            cluster.remove_shard("shard-2")
            assert "shard-2" not in cluster.shards
            assert not shard.process.is_alive()
            assert shard.process.exitcode == 0
            # The survivors keep serving.
            cluster.insert(b"key", b"value")
            assert cluster.lookup(b"key").found

    def test_add_shard_spawns_worker(self, cluster_config):
        with ParallelClusterService(num_shards=2, config=cluster_config) as cluster:
            cluster.add_shard("shard-extra")
            assert cluster.shards["shard-extra"].alive
            cluster.insert(b"key", b"value")
            assert cluster.lookup(b"key").found


class TestClusterCloseSafety:
    """Satellite: ClusterService.close() is exception-safe and idempotent."""

    def test_failure_on_one_shard_still_closes_the_rest(self, cluster_config, tmp_path):
        cluster = ClusterService(
            num_shards=3,
            config=cluster_config,
            storage="persistent",
            data_dir=str(tmp_path / "cluster"),
        )
        cluster.insert(b"key", b"value")
        closed = []
        victim_id, victim = next(iter(cluster.shards.items()))
        original_close = victim.close

        def exploding_close(*args, **kwargs):
            closed.append(victim_id)
            raise RuntimeError("disk pulled mid-close")

        victim.close = exploding_close
        with pytest.raises(ClusterCloseError) as excinfo:
            cluster.close()
        assert [shard_id for shard_id, _ in excinfo.value.failures] == [victim_id]
        assert "disk pulled mid-close" in str(excinfo.value)
        # Every *other* shard was still closed despite the failure.
        for shard_id, clam in cluster.shards.items():
            if shard_id != victim_id:
                assert clam.closed
        victim.close = original_close
        cluster.close()  # idempotent once the failure is gone
        assert victim.closed
