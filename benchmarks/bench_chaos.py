"""Chaos drill for the hardened RPC plane: faults in, no acknowledged loss out.

The worker-process cluster claims its RPC plane survives gray network
failures: per-request deadlines, bounded idempotent retries, hedged reads at
RF>=2, CRC-checked frames and a per-shard circuit breaker.  This benchmark
drives those claims end to end under :class:`~repro.service.chaos.
ChaosTransport` fault injection and freezes them into ratchetable numbers:

* **Chaos drill** — a seeded randomized schedule (drops, duplicates, CRC
  corruption, delays) on every worker link at RF=2 while acknowledged writes
  and lookups flow.  Contract: **zero acknowledged writes lost**,
  availability >= 0.99, and every single-key operation bounded by the
  deadline/retry budget (``max_op_latency_ms``).
* **Stall drill** — one worker frozen with SIGSTOP.  Batched lookups must
  hedge around it inside the hedge window *without* marking it down (slow is
  not dead); single-key reads must then trip the deadline, open the circuit,
  fail over, and reopening the shard must rejoin it with zero lost keys.
* **Parity** — with chaos disabled, the exact deadline/retry/hedging
  configuration must reproduce the in-process cluster bit for bit (results,
  merged counters, ensemble clocks) and emit **no** RPC-resilience events:
  the hardening is free until a fault actually happens.

``--quick`` shrinks the chaos workload (the stall drill and parity run at
fixed sizes), writes ``BENCH_chaos_quick.json`` and ratchets it against the
committed ``BENCH_chaos.json`` via :mod:`benchmarks.ratchet`.
"""

from __future__ import annotations

import argparse
import os
import signal
import time

from benchmarks.common import (
    add_telemetry_arg,
    dump_telemetry,
    print_table,
    standard_config,
    without_event_log,
    write_bench_json,
)
from benchmarks.ratchet import REGISTRY, check_spec
from repro.core.errors import DeviceFailedError, ShardUnavailableError
from repro.service import ChaosSchedule, ClusterService, WorkerProcesses
from repro.telemetry.schema import validate_snapshot
from repro.workloads.keygen import fingerprint_for
from repro.workloads.workload import Operation, OpKind

SHARDS = 4
RF = 2

# The resilience budget under test.  Healthy workers answer in microseconds,
# so the deadline only prices genuine faults; the bound below is the whole
# point — a worst-case single-key write burns every retry on both replicas
# and still completes inside it.
DEADLINE_MS = 150.0
RETRY_LIMIT = 3
BACKOFF_MS = 2.0
HEDGE_MS = 50.0
OP_LATENCY_BOUND_MS = 2_500.0

CHAOS_SEED = 2026
CHAOS_KEYS = 360
CHAOS_SCHEDULE = dict(
    drop_rate=0.015,
    duplicate_rate=0.05,
    corrupt_rate=0.015,
    delay_rate=0.05,
    delay_ms=2.0,
)

STALL_KEYS = 120
PARITY_OPS = 240


def build_cluster(telemetry: bool = False, hedge: bool = False) -> ClusterService:
    return ClusterService(
        num_shards=SHARDS,
        config=standard_config(telemetry_enabled=telemetry),
        replication_factor=RF,
        workers=WorkerProcesses(
            request_deadline_ms=DEADLINE_MS,
            retry_limit=RETRY_LIMIT,
            retry_backoff_ms=BACKOFF_MS,
            hedge_delay_ms=HEDGE_MS if hedge else None,
        ),
    )


def event_counts(cluster) -> dict:
    counts: dict = {}
    for event in cluster.events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


def run_chaos_drill():
    """Acknowledged writes under a randomized fault schedule at RF=2."""
    cluster = build_cluster(telemetry=True)
    try:
        cluster.install_chaos(ChaosSchedule(**CHAOS_SCHEDULE), seed=CHAOS_SEED)
        keys = [fingerprint_for(index, namespace=b"chaos") for index in range(CHAOS_KEYS)]
        acked, refused = [], 0
        max_latency_ms = 0.0
        for key in keys:
            started = time.monotonic()
            try:
                cluster.insert(key, b"chaos-value")
                acked.append(key)
            except (ShardUnavailableError, DeviceFailedError):
                refused += 1
            max_latency_ms = max(max_latency_ms, (time.monotonic() - started) * 1000.0)
        # Reads continue under the same chaos: batched (the scatter/gather
        # path) and a single-key sample (the deadline/retry path).
        found_in_batch = sum(
            1
            for result in cluster.execute_batch(
                [Operation(OpKind.LOOKUP, key) for key in acked]
            ).results
            if result is not None and result.found
        )
        sample = acked[:: max(1, len(acked) // 48)]
        lookup_failures = 0
        for key in sample:
            started = time.monotonic()
            try:
                if not cluster.lookup(key).found:
                    lookup_failures += 1
            except (ShardUnavailableError, DeviceFailedError):
                lookup_failures += 1
            max_latency_ms = max(max_latency_ms, (time.monotonic() - started) * 1000.0)
        counts = event_counts(cluster)
        # Chaos off, every circuit closed again: each acknowledged write must
        # still be readable — the zero-lost-acked-writes contract.
        cluster.clear_chaos()
        for shard_id in sorted(cluster.down_shard_ids):
            cluster.reopen_shard(shard_id)
        lost = sum(
            1
            for key in acked
            if not (result := cluster.lookup(key)).found or result.value != b"chaos-value"
        )
        attempts = len(keys) + len(acked) + len(sample)
        successes = len(acked) + found_in_batch + (len(sample) - lookup_failures)
        snapshot = cluster.telemetry_snapshot(include_buckets=False)
        validate_snapshot(snapshot)
    finally:
        cluster.close()
    return {
        "seeded_keys": CHAOS_KEYS,
        "acked_writes": len(acked),
        "refused_writes": refused,
        "lost_acked_writes": lost,
        "availability": round(successes / attempts, 5),
        "injected_faults": counts.get("chaos_injected", 0),
        "rpc_timeouts": counts.get("rpc_timeout", 0),
        "rpc_retries": counts.get("rpc_retry", 0),
        "workers_stalled": counts.get("worker_stalled", 0),
        "max_op_latency_ms": round(max_latency_ms, 2),
        "op_latency_bound_ms": OP_LATENCY_BOUND_MS,
    }, snapshot


def run_stall_drill():
    """One SIGSTOP-frozen worker: hedge around it, then circuit-break it."""
    cluster = build_cluster(hedge=True)
    try:
        keys = [fingerprint_for(index, namespace=b"stall") for index in range(STALL_KEYS)]
        for key in keys:
            cluster.insert(key, b"stall-value")
        victim = cluster.shard_for(keys[0])
        os.kill(cluster.shards[victim].pid, signal.SIGSTOP)
        try:
            # Hedged phase: batched lookups abandon the frozen primary after
            # the hedge window and reroute — without declaring it dead.
            hedged_found = sum(
                1
                for result in cluster.execute_batch(
                    [Operation(OpKind.LOOKUP, key) for key in keys]
                ).results
                if result is not None and result.found
            )
            down_during_hedge = int(victim in cluster.down_shard_ids)
            # Deadline phase: single-key reads have no hedge, so the frozen
            # worker burns its full retry budget, opens the circuit and joins
            # the down set; every read still answers from the replica.
            deadline_found = sum(1 for key in keys if cluster.lookup(key).found)
            down_after_deadline = int(victim in cluster.down_shard_ids)
        finally:
            os.kill(cluster.shards[victim].pid, signal.SIGCONT)
        counts = event_counts(cluster)
        cluster.reopen_shard(victim)
        lost = sum(1 for key in keys if not cluster.lookup(key).found)
    finally:
        cluster.close()
    return {
        "seeded_keys": STALL_KEYS,
        "victim": victim,
        "hedged_lookups_found": hedged_found,
        "hedge_fired": counts.get("hedge_fired", 0),
        "victim_down_during_hedge": down_during_hedge,
        "deadline_lookups_found": deadline_found,
        "workers_stalled": counts.get("worker_stalled", 0),
        "victim_down_after_deadline": down_after_deadline,
        "lost_keys": lost,
    }


def run_parity():
    """Chaos off: the resilience configuration must be bit-invisible."""

    def drive(cluster):
        records = []
        for index in range(PARITY_OPS // 2):
            records.append(cluster.insert(b"parity-%d" % index, b"value-%d" % index))
        records.extend(
            cluster.execute_batch(
                [
                    Operation(OpKind.LOOKUP, b"parity-%d" % index)
                    if index % 3
                    else Operation(OpKind.UPDATE, b"parity-%d" % index, b"update")
                    for index in range(PARITY_OPS // 2)
                ]
            ).results
        )
        return records

    reference = ClusterService(
        num_shards=SHARDS, config=standard_config(), replication_factor=RF
    )
    expected = drive(reference)
    cluster = build_cluster(hedge=True)
    try:
        actual = drive(cluster)
        mismatches = sum(1 for got, want in zip(actual, expected) if got != want)
        mismatches += abs(len(actual) - len(expected))
        counters_identical = cluster.stats.combined() == reference.stats.combined()
        clock_identical = cluster.clock.now_ms == reference.clock.now_ms
        rpc_kinds = {
            "chaos_injected",
            "rpc_timeout",
            "rpc_retry",
            "hedge_fired",
            "worker_stalled",
        }
        rpc_events_absent = rpc_kinds.isdisjoint(cluster.events.kinds())
    finally:
        cluster.close()
    return {
        "operations": len(expected),
        "mismatches": mismatches,
        "results_identical": int(mismatches == 0),
        "counters_identical": int(counters_identical),
        "clock_identical": int(clock_identical),
        "rpc_events_absent": int(rpc_events_absent),
    }


def check_invariants(chaos, stall, parity) -> None:
    """The contracts the chaos-hardened RPC plane ships under."""
    assert chaos["lost_acked_writes"] == 0, chaos
    assert chaos["availability"] >= 0.99, chaos
    assert chaos["injected_faults"] > 0, chaos
    assert chaos["max_op_latency_ms"] <= OP_LATENCY_BOUND_MS, chaos
    assert stall["hedged_lookups_found"] == STALL_KEYS, stall
    assert stall["hedge_fired"] >= 1, stall
    assert stall["victim_down_during_hedge"] == 0, stall
    assert stall["deadline_lookups_found"] == STALL_KEYS, stall
    assert stall["workers_stalled"] >= 1, stall
    assert stall["victim_down_after_deadline"] == 1, stall
    assert stall["lost_keys"] == 0, stall
    assert parity["results_identical"] == 1, parity
    assert parity["counters_identical"] == 1, parity
    assert parity["clock_identical"] == 1, parity
    assert parity["rpc_events_absent"] == 1, parity


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller chaos workload for CI smoke runs"
    )
    add_telemetry_arg(parser)
    args = parser.parse_args()
    global CHAOS_KEYS
    if args.quick:
        CHAOS_KEYS = 120

    chaos, telemetry = run_chaos_drill()
    stall = run_stall_drill()
    parity = run_parity()
    check_invariants(chaos, stall, parity)

    print_table(
        "Chaos drill (randomized faults on every link, RF=2)",
        ["check", "value"],
        [
            ("acked writes", chaos["acked_writes"]),
            ("lost acked writes", chaos["lost_acked_writes"]),
            ("availability", chaos["availability"]),
            ("faults injected", chaos["injected_faults"]),
            ("rpc timeouts / retries", f"{chaos['rpc_timeouts']} / {chaos['rpc_retries']}"),
            ("max op latency (ms)", chaos["max_op_latency_ms"]),
            ("latency bound (ms)", chaos["op_latency_bound_ms"]),
        ],
    )
    print_table(
        "Stall drill (SIGSTOP-frozen worker)",
        ["check", "value"],
        [
            ("hedges fired", stall["hedge_fired"]),
            ("victim down during hedging", stall["victim_down_during_hedge"]),
            ("circuit opened on deadline", stall["victim_down_after_deadline"]),
            ("lost keys", stall["lost_keys"]),
        ],
    )
    print_table(
        "Chaos-off parity (deadlines + retries + hedging enabled)",
        ["check", "value"],
        [
            ("operations", parity["operations"]),
            ("mismatches", parity["mismatches"]),
            ("rpc events absent", parity["rpc_events_absent"]),
        ],
    )

    embedded, log_counts = without_event_log(telemetry)
    path = write_bench_json(
        "chaos",
        {
            "spec": {
                "shards": SHARDS,
                "replication_factor": RF,
                "request_deadline_ms": DEADLINE_MS,
                "retry_limit": RETRY_LIMIT,
                "retry_backoff_ms": BACKOFF_MS,
                "hedge_delay_ms": HEDGE_MS,
                "chaos_seed": CHAOS_SEED,
                "chaos_schedule": CHAOS_SCHEDULE,
                "chaos_keys": CHAOS_KEYS,
                "stall_keys": STALL_KEYS,
                "parity_operations": PARITY_OPS,
                "cores_available": os.cpu_count(),
            },
            "chaos": chaos,
            "stall": stall,
            "parity": parity,
            "event_counts": log_counts,
        },
        quick=args.quick,
        telemetry=embedded,
    )
    print(f"wrote {path}")
    dump_telemetry(args.telemetry_out, telemetry)
    if args.quick:
        checks = check_spec(REGISTRY["chaos"])
        if checks:
            print(f"ratchet ok: {len(checks)} metric checks against BENCH_chaos.json")
        else:
            print("ratchet skipped: no committed BENCH_chaos.json yet")


if __name__ == "__main__":
    main()
