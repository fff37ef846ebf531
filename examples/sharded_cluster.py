#!/usr/bin/env python3
"""Sharded CLAM cluster: routing, batching, elastic scaling and skewed traffic.

Run with::

    python examples/sharded_cluster.py

Demonstrates the ``repro.service`` layer: a 4-shard cluster behind the
familiar single-index API, batched execution amortising dispatch overhead,
online shard joins and departures that move exactly the key ranges that
change owner (with no key lost), and a closed-loop multi-client traffic
simulation with hot-shard detection.
"""

from __future__ import annotations

from repro.core import CLAMConfig
from repro.service import ClusterService, KeyMigrator, TrafficSimulator, TrafficSpec
from repro.workloads import WorkloadRunner, WorkloadSpec, build_mixed_workload, fingerprint_for


def config() -> CLAMConfig:
    return CLAMConfig.scaled(
        num_super_tables=16, buffer_capacity_items=128, incarnations_per_table=8
    )


def cluster_as_a_single_index() -> None:
    """A whole cluster drives like one CLAM — same API, same runner."""
    print("=== A 4-shard cluster behind the single-index API ===")
    cluster = ClusterService(num_shards=4, config=config(), storage="intel-ssd")

    cluster.insert(b"fingerprint-1", b"chunk-address-1")
    hit = cluster.lookup(b"fingerprint-1")
    print(
        f"hit: value={hit.value!r} latency={hit.latency_ms:.4f} ms "
        f"(owner: {cluster.shard_for(b'fingerprint-1')})"
    )

    operations = build_mixed_workload(WorkloadSpec(num_keys=4_000, seed=3))
    report = WorkloadRunner(cluster).run(operations)
    print(
        "runner over the cluster: %d ops, lookup %.4f ms mean, %.0f ops/s"
        % (
            report.operations,
            report.mean_lookup_latency_ms,
            report.throughput_ops_per_second,
        )
    )
    loads = cluster.stats.operations_per_shard()
    print("per-shard load: " + ", ".join(f"{s}={int(n)}" for s, n in sorted(loads.items())))
    print(f"imbalance factor: {cluster.stats.imbalance_factor():.2f}")
    print()


def batching_amortises_dispatch() -> None:
    """Same workload, sequential vs batched: identical answers, less overhead."""
    print("=== Batched vs sequential execution ===")
    operations = build_mixed_workload(WorkloadSpec(num_keys=4_000, seed=5))

    sequential = WorkloadRunner(ClusterService(num_shards=4, config=config()))
    seq_report = sequential.run(operations)
    batched = WorkloadRunner(ClusterService(num_shards=4, config=config()))
    batch_report = batched.run_batched(operations, batch_size=64)

    assert batch_report.lookup_hits == seq_report.lookup_hits
    print(f"identical results: {batch_report.lookup_hits} lookup hits either way")
    print(
        "simulated duration: sequential %.1f ms vs batched %.1f ms (%.0f%% saved)"
        % (
            seq_report.simulated_duration_ms,
            batch_report.simulated_duration_ms,
            100
            * (1 - batch_report.simulated_duration_ms / seq_report.simulated_duration_ms),
        )
    )

    one_batch = batched.index.execute_batch(operations[:64])
    print(
        "one 64-op batch: %d shards touched, makespan %.4f ms, dispatch saved %.3f ms"
        % (one_batch.shards_touched, one_batch.makespan_ms, one_batch.dispatch_saved_ms)
    )
    print()


def elastic_scaling() -> None:
    """Shards join and leave online: a KeyMigrator streams exactly the key
    ranges that change owner, and consistent hashing keeps them small."""
    print("=== Adding and removing shards ===")
    cluster = ClusterService(num_shards=4, config=config())
    keys = [fingerprint_for(i, namespace=b"elastic") for i in range(2_000)]
    cluster.insert_batch([(key, b"value") for key in keys])
    migrator = KeyMigrator(cluster)
    joined = migrator.start_add()
    added = migrator.run_to_completion()
    print(
        "add %s:    %.1f%% of the key space moves (all gained by the new shard), "
        "%d keys copied" % (joined, 100 * added.moved_fraction, added.keys_copied)
    )
    migrator.start_remove("shard-2")
    removed = migrator.run_to_completion()
    print(
        "remove shard-2: %.1f%% moves to the survivors, %d keys copied"
        % (100 * removed.moved_fraction, removed.keys_copied)
    )
    lost = sum(1 for key in keys if not cluster.lookup(key).found)
    assert lost == 0, lost
    print(f"fleet is now: {', '.join(cluster.shard_ids)}; all {len(keys)} keys still found")
    print()


def skewed_traffic_simulation() -> None:
    """Closed-loop clients with Zipf skew expose hot shards."""
    print("=== Multi-client Zipf traffic and hot-shard detection ===")
    cluster = ClusterService(num_shards=8, config=config())
    spec = TrafficSpec(
        num_clients=16,
        requests_per_client=40,
        batch_size=8,
        lookup_fraction=0.6,
        update_fraction=0.1,
        key_space=4_000,
        zipf_skew=1.4,
        seed=9,
    )
    simulator = TrafficSimulator(cluster, spec)
    simulator.warmup(1_000)
    report = simulator.run()
    summary = report.request_latency_summary()
    print(
        "%d clients x %d requests: %.0f ops/s, request p50 %.4f ms, p99 %.4f ms"
        % (
            spec.num_clients,
            spec.requests_per_client,
            report.throughput_ops_per_second,
            summary.median_ms,
            summary.p99_ms,
        )
    )
    print(f"lookup hit rate: {100 * report.lookup_success_rate:.0f}%")
    print(
        "shard load: "
        + ", ".join(f"{s}={n}" for s, n in sorted(report.ops_per_shard.items()))
    )
    print(
        f"imbalance {report.imbalance_factor:.2f}, hot shards: "
        + (", ".join(report.hot_shards) or "none")
    )
    print()


if __name__ == "__main__":
    cluster_as_a_single_index()
    batching_amortises_dispatch()
    elastic_scaling()
    skewed_traffic_simulation()
