"""Crash recovery: hard-kill a durable CLAM mid-workload, reopen, lose nothing.

The durability contract (``repro.core.recovery``): a file-backed CLAM that
loses power at an *arbitrary* I/O boundary — mid incarnation write, mid block
erase, mid checkpoint — must reopen with every acknowledged write intact.
Acknowledged means the incarnation flush containing the write completed;
DRAM-buffered writes may be lost and the reopen reports that honestly.

This benchmark exercises the contract three ways (``BENCH_recovery.json``):

* **crash matrix** — the deterministic workload is hard-killed at randomized
  I/O counts (the device-level fault injector tears the in-flight page or
  poisons the in-flight erase block, exactly like a power cut).  After each
  kill the file is reopened and every acknowledged key is read back;
  ``acked_keys_lost`` must be exactly 0 across all cuts.
* **cold vs checkpoint recovery** — the same crash recovered twice: once by
  replaying the whole incarnation log (cold) and once from the latest
  checkpoint plus the log suffix written after it.  The checkpoint restores
  Bloom filters without touching data pages, so its simulated recovery I/O
  must be strictly cheaper.
* **cluster reopen-and-rejoin** — a replicated cluster on persistent shards
  power-cuts one shard mid-traffic, reopens it in place (no re-replication
  of its key range) and replays only the hinted-handoff keys it missed;
  zero keys may be lost cluster-wide.
* **parent restart** — a persistent RF=2 cluster is written, closed and
  reopened by a fresh parent, which then crashes ``shard-0``, recovers and
  crashes ``shard-1``.  Recovery seeds its arcs by scanning the surviving
  shards, so the restart forgets nothing: ``keys_affected`` must be nonzero
  and every acknowledged key must still read back after the second crash.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import tempfile
import time

from benchmarks.common import (
    add_telemetry_arg,
    dump_telemetry,
    print_table,
    write_bench_json,
)
from repro.core import CLAMConfig, DurableCLAM, PowerLossError
from repro.core.errors import DeviceFailedError
from repro.core.incarnation import iter_page_entries
from repro.flashsim.device import DeviceGeometry
from repro.service.cluster import ClusterService
from repro.service.rebalance import KeyMigrator

SEED = 1020
GEOM = DeviceGeometry(page_size=2048, pages_per_block=16, num_blocks=48)
CFG = CLAMConfig(
    num_super_tables=4,
    buffer_capacity_items=32,
    incarnations_per_table=8,
    checkpoint_interval_flushes=8,
)
COLD_CFG = CLAMConfig(
    num_super_tables=4,
    buffer_capacity_items=32,
    incarnations_per_table=8,
)
CLUSTER_CFG = CLAMConfig(
    num_super_tables=2,
    buffer_capacity_items=16,
    incarnations_per_table=16,
    checkpoint_interval_flushes=4,
    telemetry_enabled=True,
)
N_OPS = 1_500
NUM_CUTS = 12
CLUSTER_KEYS = 400
RESTART_CFG = CLAMConfig.scaled(
    num_super_tables=4, buffer_capacity_items=64, incarnations_per_table=8
)
RESTART_KEYS = 300


def key(i: int) -> bytes:
    return b"bench-key-%06d" % i


def value(i: int) -> bytes:
    return b"bench-val-%06d" % i


def run_workload(path, crash_at=None, config=CFG, n_ops=None):
    """Deterministic insert/lookup/delete mix; returns ``(clam, error)``."""
    n_ops = N_OPS if n_ops is None else n_ops
    clam = DurableCLAM(path, config=config, geometry=GEOM)
    if crash_at is not None:
        clam.persistent_device.faults.crash_after_n_ios(crash_at)
    error = None
    try:
        for i in range(n_ops):
            clam.insert(key(i), value(i))
            if i % 13 == 0:
                clam.lookup(key(i // 2))
            if i and i % 29 == 0:
                clam.delete(key(i - 3))
        clam.close()
    except (PowerLossError, DeviceFailedError) as err:
        error = err
    return clam, error


def acknowledged_items(clam):
    """Oracle: items of every incarnation the crashed CLAM still lists.

    Handles are registered in DRAM only after their streaming write
    returned, so they enumerate exactly the acknowledged (durable) state.
    ``peek_page`` reads the media image without the dead device's fault gate.
    """
    device = clam.persistent_device
    acked = {}
    for table in clam.tables:
        deleted = set(table.delete_list_snapshot())
        for handle in table.incarnation_handles:
            for offset in range(handle.num_pages):
                image = device.peek_page(handle.address + offset)
                assert image is not None, "acknowledged page damaged on media"
                for k, v in iter_page_entries(image):
                    if k not in deleted:
                        acked[k] = v
    return acked


def total_io_units(workdir, config=CFG) -> int:
    """I/O units the uncrashed workload performs, via an unreachable cut."""
    sentinel = 10**9
    clam = DurableCLAM(workdir / "dry.clam", config=config, geometry=GEOM)
    clam.persistent_device.faults.crash_after_n_ios(sentinel)
    injector = clam.persistent_device.faults
    for i in range(N_OPS):
        clam.insert(key(i), value(i))
        if i % 13 == 0:
            clam.lookup(key(i // 2))
        if i and i % 29 == 0:
            clam.delete(key(i - 3))
    clam.close()
    (workdir / "dry.clam").unlink()
    return sentinel - injector._power_countdown


def run_crash_matrix(workdir):
    """Hard-kill at NUM_CUTS randomized I/O counts; zero acknowledged loss."""
    total = total_io_units(workdir)
    rng = random.Random(SEED)
    cuts = sorted(rng.sample(range(1, total), NUM_CUTS))
    path = workdir / "matrix.clam"
    modes = {}
    acked_verified = 0
    lost = 0
    torn_discarded = 0
    erase_blocks_repaired = 0
    recovery_io_ms = []
    recovery_wall_s = []
    for cut in cuts:
        if path.exists():
            path.unlink()
        crashed, error = run_workload(path, crash_at=cut)
        assert error is not None, f"cut at {cut} never fired (total {total})"
        mode = crashed.persistent_device.faults.mode.name
        modes[mode] = modes.get(mode, 0) + 1
        acked = acknowledged_items(crashed)
        crashed.close()

        started = time.perf_counter()
        with DurableCLAM(path, geometry=GEOM) as reopened:
            recovery_wall_s.append(time.perf_counter() - started)
            report = reopened.recovery_report
            recovery_io_ms.append(report.recovery_io_ms)
            torn_discarded += report.torn_pages_discarded
            erase_blocks_repaired += report.interrupted_erase_blocks
            for k, v in acked.items():
                result = reopened.lookup(k)
                acked_verified += 1
                if not result.found or result.value != v:
                    lost += 1
    path.unlink()
    assert lost == 0, f"{lost} acknowledged writes lost across {len(cuts)} cuts"
    return {
        "total_io_units": total,
        "cuts": cuts,
        "cut_modes": modes,
        "acked_keys_verified": acked_verified,
        "acked_keys_lost": lost,
        "torn_pages_discarded": torn_discarded,
        "interrupted_erase_blocks_repaired": erase_blocks_repaired,
        "mean_recovery_io_ms": sum(recovery_io_ms) / len(recovery_io_ms),
        "max_recovery_io_ms": max(recovery_io_ms),
        "mean_recovery_wall_s": sum(recovery_wall_s) / len(recovery_wall_s),
    }


def run_cold_vs_checkpoint(workdir):
    """The same late crash recovered cold and from checkpoint + log suffix."""
    outcomes = {}
    for label, config in (("checkpoint", CFG), ("cold", COLD_CFG)):
        total = total_io_units(workdir, config=config)
        path = workdir / f"{label}.clam"
        crashed, error = run_workload(path, crash_at=total * 4 // 5, config=config)
        assert error is not None
        crashed.close()
        started = time.perf_counter()
        with DurableCLAM(path, geometry=GEOM) as reopened:
            wall = time.perf_counter() - started
            report = reopened.recovery_report
        path.unlink()
        outcomes[label] = {
            "recovery_io_ms": report.recovery_io_ms,
            "recovery_wall_s": wall,
            "checkpoint_seq": report.checkpoint_seq,
            "incarnations_from_checkpoint": report.incarnations_from_checkpoint,
            "log_records_replayed": report.log_records_replayed,
            "entries_rebuilt": report.entries_rebuilt,
            "pages_scanned": report.pages_scanned,
        }
    assert outcomes["cold"]["checkpoint_seq"] is None
    assert outcomes["checkpoint"]["incarnations_from_checkpoint"] > 0
    assert outcomes["checkpoint"]["recovery_io_ms"] < outcomes["cold"]["recovery_io_ms"]
    outcomes["io_speedup"] = (
        outcomes["cold"]["recovery_io_ms"] / outcomes["checkpoint"]["recovery_io_ms"]
    )
    return outcomes


def run_cluster_reopen(workdir):
    """Power-cut one persistent shard mid-traffic; reopen and rejoin in place."""
    data_dir = workdir / "cluster"
    with ClusterService(
        num_shards=3,
        config=CLUSTER_CFG,
        storage="persistent",
        data_dir=str(data_dir),
        replication_factor=2,
    ) as cluster:
        for i in range(CLUSTER_KEYS):
            cluster.insert(key(i), value(i))
        victim = cluster.shard_for(key(0))
        cluster.fail_shard(victim, mode="power-cut", after_n_ios=9)
        written = CLUSTER_KEYS
        for i in range(CLUSTER_KEYS, CLUSTER_KEYS * 3):
            cluster.insert(key(i), value(i))
            written = i + 1
            if victim in cluster.down_shard_ids:
                break
        assert victim in cluster.down_shard_ids, "power cut never tripped the detector"
        for i in range(written, written + 80):  # hints accumulate while down
            cluster.insert(key(i), value(i))
        written += 80

        reports = cluster.reopen_and_rejoin()
        report = reports[victim]
        lost = sum(1 for i in range(written) if cluster.get(key(i)) != value(i))
        assert lost == 0, f"{lost} keys lost cluster-wide after reopen"
        kinds = [event.kind for event in cluster.events]
        expected = (
            "failure_injected",
            "crash_recovery_started",
            "crash_recovery_completed",
            "reopen_rejoin",
        )
        for kind in expected:
            assert kind in kinds, (kind, kinds)
        outcome = {
            "victim": victim,
            "keys_written": written,
            "keys_lost": lost,
            "clean_shutdown": report.clean_shutdown,
            "log_records_replayed": report.log_records_replayed,
            "entries_rebuilt": report.entries_rebuilt,
            "recovery_io_ms": report.recovery_io_ms,
            "hinted_handoffs_replayed": cluster.hinted_handoffs,
        }
        snapshot = cluster.telemetry_snapshot(include_buckets=False)
    return outcome, snapshot


def run_parent_restart(workdir):
    """Write, restart the parent, crash shard-0, recover, crash shard-1."""
    spec = dict(
        num_shards=4,
        replication_factor=2,
        config=RESTART_CFG,
        storage="persistent",
        data_dir=str(workdir / "restart"),
    )
    with ClusterService(**spec) as cluster:
        cluster.insert_batch([(key(i), value(i)) for i in range(RESTART_KEYS)])
    with ClusterService(**spec) as cluster:
        cluster.fail_shard("shard-0")
        cluster.record_shard_error("shard-0")  # detected: one error marks it down
        report = KeyMigrator(cluster).recover()
        cluster.fail_shard("shard-1")
        cluster.record_shard_error("shard-1")
        unreadable = sum(1 for i in range(RESTART_KEYS) if cluster.get(key(i)) != value(i))
    assert report.keys_seeded > 0, "recovery found nothing to re-replicate"
    assert unreadable == 0, f"{unreadable} acked keys unreadable after the second crash"
    return {
        "keys_written": RESTART_KEYS,
        "keys_affected": report.keys_seeded,
        "keys_lost": report.keys_lost,
        "lost_fraction": report.lost_fraction,
        "unreadable_after_second_crash": unreadable,
    }


def print_outcomes(matrix, cold_vs_ckpt, cluster_outcome, restart) -> None:
    print_table(
        f"Crash matrix: {len(matrix['cuts'])} randomized power cuts over "
        f"{matrix['total_io_units']} I/O units",
        ["cut modes", "acked verified", "acked lost", "torn pages", "mean recovery ms"],
        [
            (
                ", ".join(f"{k}:{v}" for k, v in sorted(matrix["cut_modes"].items())),
                matrix["acked_keys_verified"],
                matrix["acked_keys_lost"],
                matrix["torn_pages_discarded"],
                round(matrix["mean_recovery_io_ms"], 3),
            )
        ],
    )
    rows = [
        (
            label,
            round(cold_vs_ckpt[label]["recovery_io_ms"], 3),
            cold_vs_ckpt[label]["incarnations_from_checkpoint"],
            cold_vs_ckpt[label]["log_records_replayed"],
            cold_vs_ckpt[label]["entries_rebuilt"],
        )
        for label in ("cold", "checkpoint")
    ]
    print_table(
        f"Cold vs checkpoint+suffix recovery (I/O speedup "
        f"{cold_vs_ckpt['io_speedup']:.2f}x)",
        ["path", "recovery I/O ms", "incarnations from ckpt", "records", "entries rebuilt"],
        rows,
    )
    print_table(
        f"Cluster reopen-and-rejoin ({cluster_outcome['victim']} power-cut)",
        ["keys written", "keys lost", "records replayed", "hints replayed"],
        [
            (
                cluster_outcome["keys_written"],
                cluster_outcome["keys_lost"],
                cluster_outcome["log_records_replayed"],
                cluster_outcome["hinted_handoffs_replayed"],
            )
        ],
    )
    print_table(
        "Parent restart, then crash shard-0, recover, crash shard-1",
        ["keys written", "keys affected", "lost fraction", "unreadable after"],
        [
            (
                restart["keys_written"],
                restart["keys_affected"],
                restart["lost_fraction"],
                restart["unreadable_after_second_crash"],
            )
        ],
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller workload for CI smoke runs"
    )
    add_telemetry_arg(parser)
    args = parser.parse_args()
    global N_OPS, NUM_CUTS, CLUSTER_KEYS
    if args.quick:
        N_OPS = 500
        NUM_CUTS = 4
        CLUSTER_KEYS = 200

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench-recovery-") as tmp:
        workdir = pathlib.Path(tmp)
        matrix = run_crash_matrix(workdir)
        cold_vs_ckpt = run_cold_vs_checkpoint(workdir)
        cluster_outcome, snapshot = run_cluster_reopen(workdir)
        restart = run_parent_restart(workdir)
    elapsed = time.perf_counter() - started

    print_outcomes(matrix, cold_vs_ckpt, cluster_outcome, restart)
    path = write_bench_json(
        "recovery",
        {
            "spec": {
                "seed": SEED,
                "n_ops": N_OPS,
                "num_cuts": NUM_CUTS,
                "cluster_keys": CLUSTER_KEYS,
                "page_size": GEOM.page_size,
                "pages_per_block": GEOM.pages_per_block,
                "num_blocks": GEOM.num_blocks,
                "checkpoint_interval_flushes": CFG.checkpoint_interval_flushes,
            },
            "crash_matrix": matrix,
            "cold_vs_checkpoint": cold_vs_ckpt,
            "cluster_reopen": cluster_outcome,
            "parent_restart": restart,
        },
        quick=args.quick,
        elapsed_seconds=elapsed,
        telemetry=snapshot,
    )
    print(f"wrote {path}")
    dump_telemetry(args.telemetry_out, snapshot)


if __name__ == "__main__":
    main()
