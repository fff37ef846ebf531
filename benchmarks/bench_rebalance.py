"""Elastic rebalancing: scale 4→6→3 shards under live Zipf traffic.

Beyond the paper: the online rebalancing layer (:mod:`repro.service.rebalance`)
streams the exact key-range arcs a membership change moves while the cluster
keeps serving — double-read (old owners first) during the move so lookups
never miss, write forwarding to the new owners, and an atomic per-arc
cut-over.  This benchmark drives three drills and enforces the elasticity
contract end to end:

* **Scripted churn** — a closed-loop Zipf workload while the schedule grows
  the cluster from 4 to 6 shards and then drains it down to 3, one online
  migration at a time.  Zero seeded keys may be lost and availability must
  stay at or above 0.99 through all five migrations.
* **Autoscale** — the same traffic with an :class:`AutoscalePolicy` reading
  each shard's operation counters; the policy must take at least one
  scale-out decision on its own and, again, lose nothing.  It runs twice, with
  telemetry on and off, and must decide the same at the same request counts:
  the counters it reads are always on.
* **Kill-the-joining-shard** — a scale-out whose joining shard crash-stops
  mid-migration at RF=2.  The migration must still complete (surviving
  old owners confirm every key; the dead shard accumulates hinted
  handoffs), every key must remain readable, and healing the shard must
  replay its backlog.

``--quick`` runs a reduced workload, writes ``BENCH_rebalance_quick.json``
and ratchets it against the committed ``BENCH_rebalance.json`` through the
shared :mod:`benchmarks.ratchet` spec (the CI lane re-runs that check via
the ratchet CLI as well).
"""

from __future__ import annotations

import argparse

from benchmarks.common import (
    add_telemetry_arg,
    dump_telemetry,
    print_table,
    standard_config,
    without_event_log,
    write_bench_json,
)
from benchmarks.ratchet import REGISTRY, check_spec
from repro.service import (
    AutoscaleConfig,
    AutoscalePolicy,
    ClusterService,
    FailureEvent,
    KeyMigrator,
    TrafficSimulator,
    TrafficSpec,
)
from repro.workloads.keygen import fingerprint_for

NUM_SHARDS = 4
REPLICATION_FACTOR = 2
#: Fewer ring points than the service default keeps the arc count (and the
#: per-arc cut-over event volume) proportionate to a benchmark run.
VIRTUAL_NODES = 16
WARMUP_KEYS = 600

SPEC = TrafficSpec(
    num_clients=6,
    requests_per_client=60,
    batch_size=8,
    lookup_fraction=0.6,
    update_fraction=0.1,
    key_space=3_000,
    zipf_skew=1.1,
    seed=53,
)

#: The 4→6→3 churn: two joins, then three drains (one is a just-joined
#: shard), each streamed online between these request counts.
CHURN = (
    (40, "scale-out", None),
    (100, "scale-out", None),
    (160, "scale-in", "shard-0"),
    (220, "scale-in", "shard-4"),
    (280, "scale-in", "shard-2"),
)
FINAL_SHARDS = 3

AUTOSCALE = AutoscaleConfig(
    min_shards=2,
    max_shards=6,
    hot_shard_threshold=1.05,
    evaluate_every=20,
    cooldown=60,
)

DRILL_KEYS = 400
DRILL_STEPS_BEFORE_KILL = 2


def build_cluster(num_shards: int = NUM_SHARDS, telemetry: bool = True) -> ClusterService:
    return ClusterService(
        num_shards=num_shards,
        config=standard_config(telemetry_enabled=telemetry),
        replication_factor=REPLICATION_FACTOR,
        virtual_nodes=VIRTUAL_NODES,
    )


def run_churn():
    """The scripted 4→6→3 churn under live traffic."""
    cluster = build_cluster()
    simulator = TrafficSimulator(
        cluster,
        SPEC,
        schedule=[
            FailureEvent(at_request=at, action=action, shard_id=shard)
            for at, action, shard in CHURN
        ],
        migrator=KeyMigrator(cluster, batch_size=48),
    )
    simulator.warmup(WARMUP_KEYS)
    seeded = [fingerprint_for(identifier) for identifier in range(WARMUP_KEYS)]
    report = simulator.run()
    lost = sum(1 for key in seeded if not cluster.lookup(key).found)

    registry = cluster.telemetry
    completed = int(registry.counter("requests_completed").value)
    failed = int(registry.counter("requests_failed").value)
    issued = completed + failed
    availability = completed / issued if issued else 1.0
    assert availability == report.availability, (availability, report.availability)

    outcome = {
        "availability": availability,
        "requests_completed": completed,
        "requests_failed": failed,
        "seeded_keys": WARMUP_KEYS,
        "lost_keys": lost,
        "migrations_completed": len(report.migrations),
        "migration_steps": sum(m.steps for m in report.migrations),
        "keys_copied": sum(m.keys_copied for m in report.migrations),
        "keys_retired": sum(m.keys_retired for m in report.migrations),
        "moved_fraction_total": round(sum(m.moved_fraction for m in report.migrations), 4),
        "blocked_retries": sum(m.blocked_retries for m in report.migrations),
        "final_shards": len(cluster.shard_ids),
        "final_shard_ids": list(cluster.shard_ids),
        "throughput_ops_per_sec": report.throughput_ops_per_second,
        "imbalance_after": cluster.stats.imbalance_factor(),
    }
    return report, outcome, cluster


def run_autoscale(telemetry: bool = True):
    """Policy-driven elasticity: the autoscaler must act on the Zipf skew."""
    cluster = build_cluster(num_shards=3, telemetry=telemetry)
    migrator = KeyMigrator(cluster, batch_size=48)
    policy = AutoscalePolicy(cluster, migrator, AUTOSCALE)
    simulator = TrafficSimulator(cluster, SPEC, autoscaler=policy)
    simulator.warmup(WARMUP_KEYS)
    seeded = [fingerprint_for(identifier) for identifier in range(WARMUP_KEYS)]
    report = simulator.run()
    lost = sum(1 for key in seeded if not cluster.lookup(key).found)
    outcome = {
        "availability": report.availability,
        "decisions": len(report.autoscale_decisions),
        "scale_outs": sum(1 for d in report.autoscale_decisions if d.action == "scale-out"),
        "scale_ins": sum(1 for d in report.autoscale_decisions if d.action == "scale-in"),
        "migrations_completed": len(report.migrations),
        "lost_keys": lost,
        "final_shards": len(cluster.shard_ids),
    }
    return report, outcome, cluster


def run_kill_joining_drill():
    """Crash the joining shard mid-migration; RF=2 must save every key."""
    cluster = build_cluster()
    for identifier in range(DRILL_KEYS):
        key = fingerprint_for(identifier, namespace=b"drill")
        cluster.insert(key, b"drill-value")
    migrator = KeyMigrator(cluster, batch_size=32)
    joining = migrator.start_add()
    for _ in range(DRILL_STEPS_BEFORE_KILL):
        migrator.step()
    cluster.fail_shard(joining, mode="crash")
    cluster.record_shard_error(joining)  # failure detection
    migrator.run_to_completion()
    lost_while_down = sum(
        1
        for identifier in range(DRILL_KEYS)
        if not cluster.lookup(fingerprint_for(identifier, namespace=b"drill")).found
    )
    hints_backlog = len(cluster._hints.get(joining, ()))
    cluster.heal_shard(joining)
    lost_after_heal = sum(
        1
        for identifier in range(DRILL_KEYS)
        if not cluster.lookup(fingerprint_for(identifier, namespace=b"drill")).found
    )
    return {
        "joining_shard": joining,
        "seeded_keys": DRILL_KEYS,
        "lost_keys_while_down": lost_while_down,
        "lost_keys_after_heal": lost_after_heal,
        "hints_backlog": hints_backlog,
        "hinted_handoffs_replayed": cluster.hinted_handoffs,
        "migration_completed": 1,
    }


def check_invariants(churn, autoscale, drill, snapshot) -> None:
    """The elasticity contract this benchmark exists to enforce."""
    # Zero lost keys and bounded availability dip through the whole churn.
    assert churn["lost_keys"] == 0, churn
    assert churn["availability"] >= 0.99, churn
    assert churn["migrations_completed"] == len(CHURN), churn
    assert churn["final_shards"] == FINAL_SHARDS, churn
    assert churn["keys_copied"] > 0 and churn["migration_steps"] > 0, churn
    # The autoscaler must have acted on the skewed load, losing nothing.
    assert autoscale["scale_outs"] >= 1, autoscale
    assert autoscale["lost_keys"] == 0, autoscale
    assert autoscale["availability"] >= 0.99, autoscale
    # Killing the joining shard degrades to hinted handoff, never to loss.
    assert drill["lost_keys_while_down"] == 0, drill
    assert drill["lost_keys_after_heal"] == 0, drill
    assert drill["hints_backlog"] > 0, drill
    assert drill["hinted_handoffs_replayed"] >= drill["hints_backlog"], drill
    # Event ordering: every migration runs started → cut-overs → done, and
    # the event log's sequence numbers are monotone.
    kinds = [event["kind"] for event in snapshot["events"]]
    for kind in ("migration_started", "arc_cut_over", "migration_done"):
        assert kind in kinds, (kind, sorted(set(kinds)))
    assert kinds.index("migration_started") < kinds.index("arc_cut_over"), kinds
    assert kinds.index("arc_cut_over") < kinds.index("migration_done"), kinds
    assert kinds.count("migration_done") == len(CHURN), kinds.count("migration_done")
    seqs = [event["seq"] for event in snapshot["events"]]
    assert seqs == sorted(seqs), seqs


def emit_json(quick, churn, autoscale, drill, telemetry):
    embedded, log_counts = without_event_log(telemetry)
    path = write_bench_json(
        "rebalance",
        {
            "spec": {
                "num_shards": NUM_SHARDS,
                "replication_factor": REPLICATION_FACTOR,
                "virtual_nodes": VIRTUAL_NODES,
                "warmup_keys": WARMUP_KEYS,
                "churn": [list(event) for event in CHURN],
                "num_clients": SPEC.num_clients,
                "requests_per_client": SPEC.requests_per_client,
                "batch_size": SPEC.batch_size,
                "key_space": SPEC.key_space,
                "zipf_skew": SPEC.zipf_skew,
                "seed": SPEC.seed,
            },
            "churn": churn,
            "autoscale": autoscale,
            "kill_joining_drill": drill,
            "event_counts": log_counts,
        },
        quick=quick,
        telemetry=embedded,
    )
    print(f"wrote {path}")


def print_outcomes(churn, autoscale, drill) -> None:
    print_table(
        "Elastic rebalancing: 4→6→3 shard churn under live Zipf traffic",
        ["phase", "availability", "lost keys", "migrations", "keys copied", "final shards"],
        [
            (
                "scripted churn",
                churn["availability"],
                churn["lost_keys"],
                churn["migrations_completed"],
                churn["keys_copied"],
                churn["final_shards"],
            ),
            (
                "autoscale",
                autoscale["availability"],
                autoscale["lost_keys"],
                autoscale["migrations_completed"],
                "-",
                autoscale["final_shards"],
            ),
            (
                "kill joining shard",
                1.0,
                drill["lost_keys_after_heal"],
                drill["migration_completed"],
                "-",
                "-",
            ),
        ],
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller workload for CI smoke runs"
    )
    add_telemetry_arg(parser)
    args = parser.parse_args()
    global SPEC, WARMUP_KEYS, CHURN, DRILL_KEYS
    if args.quick:
        WARMUP_KEYS = 300
        DRILL_KEYS = 200
        SPEC = TrafficSpec(
            num_clients=4,
            requests_per_client=25,
            batch_size=6,
            lookup_fraction=0.6,
            update_fraction=0.1,
            key_space=1_500,
            zipf_skew=1.1,
            seed=53,
        )
        CHURN = (
            (10, "scale-out", None),
            (25, "scale-out", None),
            (45, "scale-in", "shard-0"),
            (65, "scale-in", "shard-4"),
            (85, "scale-in", "shard-2"),
        )
    _, churn, cluster = run_churn()
    report, autoscale, _ = run_autoscale()
    untraced, _, _ = run_autoscale(telemetry=False)
    decisions = [(d.action, d.shard, d.at_request) for d in report.autoscale_decisions]
    assert decisions == [
        (d.action, d.shard, d.at_request) for d in untraced.autoscale_decisions
    ], "the autoscaler decided differently with telemetry off"
    drill = run_kill_joining_drill()
    print_outcomes(churn, autoscale, drill)
    check_invariants(churn, autoscale, drill, cluster.telemetry_snapshot())
    emit_json(
        args.quick,
        churn,
        autoscale,
        drill,
        telemetry=cluster.telemetry_snapshot(include_buckets=False),
    )
    dump_telemetry(args.telemetry_out, cluster.telemetry_snapshot())
    if args.quick:
        checks = check_spec(REGISTRY["rebalance"])
        if checks:
            print(f"ratchet ok: {len(checks)} metric checks against BENCH_rebalance.json")
        else:
            print("ratchet skipped: no committed BENCH_rebalance.json yet")


if __name__ == "__main__":
    main()
