"""Failover: kill a shard mid-workload, measure availability and recovery.

Beyond the paper: the replicated service layer (``repro.service``) places
every key on a preference list of N shards, fails over reads and writes to
surviving replicas, and re-replicates a dead shard's key ranges along the
router's exact handoff arcs (``KeyMigrator.recover``).  This benchmark
runs the same deterministic closed-loop Zipf workload twice — once without
replication (RF=1) and once with RF=2 — and, mid-run, crash-stops one shard
via the device-level fault injector, then schedules a recovery pass a few
requests later.

Headline numbers (``BENCH_failover.json``):

* **availability** — fraction of client requests that completed during the
  run; RF=2 must stay at 1.0 (requests fail over), RF=1 dips while the dead
  shard is still on the ring.
* **lost keys** — seeded keys unreadable after recovery completes.  With
  RF>=2 this must be exactly 0; with RF=1 the dead shard's key range is
  gone, which is the motivation for replication, and the recovery report's
  ``lost_fraction`` names the share of the key space it covered.
* **recovery time** — simulated duration and total shard-side work of the
  re-replication pass, plus how many keys/copies it moved.
* **post-recovery imbalance** — operation imbalance across the surviving
  shards after the dead shard's arcs were handed off.
"""

from __future__ import annotations

import argparse

from benchmarks.common import (
    add_telemetry_arg,
    dump_telemetry,
    print_table,
    standard_replicated_cluster,
    without_event_log,
    write_bench_json,
)
from repro.service import FailureEvent, TrafficSimulator, TrafficSpec
from repro.workloads.keygen import fingerprint_for

NUM_SHARDS = 4
VICTIM = "shard-1"
WARMUP_KEYS = 800
FAIL_AT_REQUEST = 80
RECOVER_AT_REQUEST = 160

SPEC = TrafficSpec(
    num_clients=8,
    requests_per_client=40,
    batch_size=8,
    lookup_fraction=0.6,
    update_fraction=0.1,
    key_space=3_000,
    zipf_skew=1.1,
    seed=47,
)


def run_failover(replication_factor: int):
    """One full kill-and-recover run.

    Returns ``(traffic report, outcome dict, telemetry snapshot)``.  The
    cluster runs with telemetry enabled and the availability accounting is
    read back from the metrics registry (``requests_completed`` /
    ``requests_failed`` counters) rather than from the traffic report's
    private tallies — the registry is the system of record this benchmark
    now audits.
    """
    cluster = standard_replicated_cluster(
        num_shards=NUM_SHARDS,
        replication_factor=replication_factor,
        telemetry_enabled=True,
    )
    simulator = TrafficSimulator(
        cluster,
        SPEC,
        schedule=[
            FailureEvent(at_request=FAIL_AT_REQUEST, action="fail", shard_id=VICTIM),
            FailureEvent(at_request=RECOVER_AT_REQUEST, action="recover"),
        ],
    )
    simulator.warmup(WARMUP_KEYS)
    seeded = [fingerprint_for(identifier) for identifier in range(WARMUP_KEYS)]
    report = simulator.run()

    lost = sum(1 for key in seeded if not cluster.lookup(key).found)
    recovery = report.recovery_reports[0] if report.recovery_reports else None

    # Availability from the telemetry plane, not the report: the simulator
    # bumps requests_completed / requests_failed on the cluster registry and
    # this benchmark audits those counters.
    registry = cluster.telemetry
    completed = int(registry.counter("requests_completed").value)
    failed = int(registry.counter("requests_failed").value)
    issued = completed + failed
    availability = completed / issued if issued else 1.0
    assert availability == report.availability, (availability, report.availability)

    outcome = {
        "replication_factor": replication_factor,
        "availability": availability,
        "requests_completed": completed,
        "requests_failed": failed,
        "throughput_ops_per_sec": report.throughput_ops_per_second,
        "seeded_keys": WARMUP_KEYS,
        "lost_keys": lost,
        "recovery_duration_ms": recovery.duration_ms if recovery else 0.0,
        "recovery_work_ms": recovery.work_ms if recovery else 0.0,
        "recovery_keys_affected": recovery.keys_seeded if recovery else 0,
        "recovery_keys_re_replicated": recovery.keys_re_replicated if recovery else 0,
        "recovery_copies_written": recovery.copies_written if recovery else 0,
        "recovery_keys_lost": recovery.keys_lost if recovery else 0,
        "recovery_lost_fraction": recovery.lost_fraction if recovery else 0.0,
        "post_recovery_imbalance": cluster.stats.imbalance_factor(),
        "post_recovery_live_shards": list(cluster.live_shard_ids),
        "healed_shards": cluster.stats.health()["healed_shards"],
        "shards_never_failed": cluster.stats.health()["shards_never_failed"],
    }
    return report, outcome, cluster


def check_invariants(outcomes, snapshots=None) -> None:
    """The failure-tolerance contract this benchmark exists to enforce."""
    replicated = outcomes[2]
    unreplicated = outcomes[1]
    # RF=2: one shard death mid-workload loses nothing and masks the outage.
    assert replicated["lost_keys"] == 0, replicated
    assert replicated["recovery_keys_lost"] == 0, replicated
    assert replicated["recovery_lost_fraction"] == 0, replicated
    assert replicated["availability"] == 1.0, replicated
    assert replicated["recovery_keys_re_replicated"] > 0, replicated
    # RF=1 is the cautionary tale: the dead shard's key range is gone, and
    # recovery says so as the share of the key space nobody was left to scan.
    assert unreplicated["lost_keys"] > 0, unreplicated
    assert unreplicated["recovery_lost_fraction"] > 0, unreplicated
    assert unreplicated["availability"] < 1.0, unreplicated
    if snapshots is None:
        return
    # The RF=2 event log must replay the drill in causal order: the schedule
    # fires, the fault is injected, the failure detector marks the shard
    # down, and only then does the recovery pass run.
    events = snapshots[2]["events"]
    kinds = [event["kind"] for event in events]
    for kind in ("schedule_fired", "failure_injected", "shard_down", "recovery"):
        assert kind in kinds, (kind, kinds)
    assert kinds.index("schedule_fired") < kinds.index("failure_injected"), kinds
    assert kinds.index("failure_injected") < kinds.index("shard_down"), kinds
    assert kinds.index("shard_down") < kinds.index("recovery"), kinds
    seqs = [event["seq"] for event in events]
    assert seqs == sorted(seqs), seqs


def emit_json(outcomes, quick, telemetry) -> None:
    """Machine-readable counterpart of the stdout table (BENCH_failover.json).

    The recovery pass logs one ``arc_cut_over`` per arc it moves, so the
    embedded snapshot carries the event log as counts only.
    """
    embedded, log_counts = without_event_log(telemetry)
    path = write_bench_json(
        "failover",
        {
            "spec": {
                "num_shards": NUM_SHARDS,
                "victim": VICTIM,
                "warmup_keys": WARMUP_KEYS,
                "fail_at_request": FAIL_AT_REQUEST,
                "recover_at_request": RECOVER_AT_REQUEST,
                "num_clients": SPEC.num_clients,
                "requests_per_client": SPEC.requests_per_client,
                "batch_size": SPEC.batch_size,
                "lookup_fraction": SPEC.lookup_fraction,
                "update_fraction": SPEC.update_fraction,
                "key_space": SPEC.key_space,
                "zipf_skew": SPEC.zipf_skew,
                "seed": SPEC.seed,
            },
            "runs": {str(rf): outcome for rf, outcome in outcomes.items()},
            "event_counts": log_counts,
        },
        quick=quick,
        telemetry=embedded,
    )
    print(f"wrote {path}")


def print_outcomes(outcomes) -> None:
    rows = []
    for rf in sorted(outcomes):
        outcome = outcomes[rf]
        rows.append(
            (
                rf,
                outcome["availability"],
                outcome["requests_failed"],
                outcome["lost_keys"],
                outcome["recovery_keys_re_replicated"],
                outcome["recovery_work_ms"],
                outcome["post_recovery_imbalance"],
            )
        )
    print_table(
        f"Failover: crash {VICTIM} at request {FAIL_AT_REQUEST}, "
        f"recover at {RECOVER_AT_REQUEST}",
        [
            "RF",
            "availability",
            "failed reqs",
            "lost keys",
            "keys re-replicated",
            "recovery work ms",
            "imbalance after",
        ],
        rows,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller workload for CI smoke runs"
    )
    add_telemetry_arg(parser)
    args = parser.parse_args()
    global SPEC, WARMUP_KEYS, FAIL_AT_REQUEST, RECOVER_AT_REQUEST
    if args.quick:
        WARMUP_KEYS = 300
        FAIL_AT_REQUEST = 30
        RECOVER_AT_REQUEST = 60
        SPEC = TrafficSpec(
            num_clients=4,
            requests_per_client=25,
            batch_size=8,
            lookup_fraction=0.6,
            update_fraction=0.1,
            key_space=1_500,
            zipf_skew=1.1,
            seed=47,
        )
    outcomes = {}
    clusters = {}
    for rf in (1, 2):
        _, outcomes[rf], clusters[rf] = run_failover(rf)
    print_outcomes(outcomes)
    # Committed BENCH file carries the compact RF=2 snapshot (no bucket
    # arrays); --telemetry-out gets the full-fidelity one.
    check_invariants(outcomes, {rf: c.telemetry_snapshot() for rf, c in clusters.items()})
    emit_json(
        outcomes, args.quick, telemetry=clusters[2].telemetry_snapshot(include_buckets=False)
    )
    dump_telemetry(args.telemetry_out, clusters[2].telemetry_snapshot())


if __name__ == "__main__":
    main()
