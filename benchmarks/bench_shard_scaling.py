"""Shard scaling: throughput and tail latency vs cluster size at fixed skew.

Beyond the paper: the service layer (``repro.service``) runs N independent
CLAM shards behind a consistent-hash router, so adding shards adds parallel
devices.  This benchmark drives the same closed-loop Zipf-skewed multi-client
traffic against clusters of 1, 2, 4 and 8 shards and reports request
throughput, p50/p99 request latency, the dispatch overhead amortised by
batching, and the load-imbalance factor (hot shards get worse as skew
concentrates keys, which is what a future rebalancing layer must fix).

Expectations:
* Throughput scales up with shard count (parallel shards, slowest-member
  clock), though sub-linearly under skew — the hot shard limits the batch
  makespan.
* p99 request latency drops as sub-batches shrink per shard.
* The imbalance factor grows (same hot keys, more mostly-idle shards).
"""

from __future__ import annotations

import argparse

from benchmarks.common import (
    add_telemetry_arg,
    dump_telemetry,
    print_table,
    standard_cluster,
    write_bench_json,
)
from repro.service import TrafficSimulator, TrafficSpec

SHARD_COUNTS = [1, 2, 4, 8]

SPEC = TrafficSpec(
    num_clients=8,
    requests_per_client=40,
    batch_size=8,
    lookup_fraction=0.5,
    update_fraction=0.1,
    key_space=4_000,
    zipf_skew=1.1,
    seed=31,
)


def run_shard_scaling(telemetry: bool = False, clusters_out=None):
    """Run the sweep; ``clusters_out`` (a dict) collects the live clusters
    when the caller wants telemetry snapshots after the fact."""
    results = {}
    for num_shards in SHARD_COUNTS:
        cluster = standard_cluster(num_shards=num_shards, telemetry_enabled=telemetry)
        simulator = TrafficSimulator(cluster, SPEC)
        simulator.warmup(1_000)
        results[num_shards] = simulator.run()
        if clusters_out is not None:
            clusters_out[num_shards] = cluster
    return results


def emit_json(results, quick: bool = False) -> None:
    """Machine-readable counterpart of the stdout table (BENCH_shard_scaling.json)."""
    per_cluster = {}
    for num_shards, report in results.items():
        summary = report.request_latency_summary()
        per_cluster[str(num_shards)] = {
            "operations": report.operations,
            "throughput_ops_per_sec": report.throughput_ops_per_second,
            "request_p50_ms": summary.median_ms,
            "request_p99_ms": summary.p99_ms,
            "dispatch_saved_ms": report.dispatch_saved_ms,
            "imbalance_factor": report.imbalance_factor,
            "hot_shards": list(report.hot_shards),
        }
    path = write_bench_json(
        "shard_scaling",
        {
            "spec": {
                "num_clients": SPEC.num_clients,
                "requests_per_client": SPEC.requests_per_client,
                "batch_size": SPEC.batch_size,
                "lookup_fraction": SPEC.lookup_fraction,
                "update_fraction": SPEC.update_fraction,
                "key_space": SPEC.key_space,
                "zipf_skew": SPEC.zipf_skew,
                "seed": SPEC.seed,
            },
            "clusters": per_cluster,
        },
        quick=quick,
    )
    print(f"wrote {path}")


def test_bench_shard_scaling(benchmark):
    results = benchmark.pedantic(run_shard_scaling, rounds=1, iterations=1)

    rows = []
    for num_shards in SHARD_COUNTS:
        report = results[num_shards]
        summary = report.request_latency_summary()
        rows.append(
            (
                num_shards,
                report.operations,
                report.throughput_ops_per_second,
                summary.median_ms,
                summary.p99_ms,
                report.dispatch_saved_ms,
                report.imbalance_factor,
                ",".join(report.hot_shards) or "-",
            )
        )
    print_table(
        "Shard scaling: closed-loop Zipf traffic (8 clients, batch 8, skew 1.1)",
        [
            "shards",
            "ops",
            "throughput ops/s",
            "req p50 ms",
            "req p99 ms",
            "dispatch saved ms",
            "imbalance",
            "hot shards",
        ],
        rows,
    )

    single, widest = results[1], results[8]
    # Every configuration completed the same closed-loop workload.
    assert {report.operations for report in results.values()} == {single.operations}
    # Parallel shards raise throughput and cut the tail.
    assert widest.throughput_ops_per_second > 1.5 * single.throughput_ops_per_second
    assert (
        widest.request_latency_summary().p99_ms
        < single.request_latency_summary().p99_ms
    )
    # A single shard is perfectly "balanced" by definition; skewed traffic over
    # many shards is not.
    assert single.imbalance_factor == 1.0
    assert widest.imbalance_factor > 1.0

    emit_json(results)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="cluster sizes 1 and 4 only, fewer requests"
    )
    add_telemetry_arg(parser)
    args = parser.parse_args()
    global SHARD_COUNTS, SPEC
    if args.quick:
        SHARD_COUNTS = [1, 4]
        SPEC = TrafficSpec(
            num_clients=4,
            requests_per_client=20,
            batch_size=8,
            lookup_fraction=0.5,
            update_fraction=0.1,
            key_space=2_000,
            zipf_skew=1.1,
            seed=31,
        )
    clusters = {}
    results = run_shard_scaling(
        telemetry=args.telemetry_out is not None, clusters_out=clusters
    )
    rows = []
    for num_shards in SHARD_COUNTS:
        report = results[num_shards]
        summary = report.request_latency_summary()
        rows.append(
            (
                num_shards,
                report.operations,
                report.throughput_ops_per_second,
                summary.median_ms,
                summary.p99_ms,
                report.imbalance_factor,
            )
        )
    print_table(
        "Shard scaling (closed-loop Zipf traffic)",
        ["shards", "ops", "throughput ops/s", "req p50 ms", "req p99 ms", "imbalance"],
        rows,
    )
    emit_json(results, quick=args.quick)
    if args.telemetry_out is not None:
        widest = clusters[max(clusters)]
        dump_telemetry(args.telemetry_out, widest.telemetry_snapshot())


if __name__ == "__main__":
    main()
