#!/usr/bin/env python3
"""Quickstart: build a CLAM, drive it with a workload, compare with Berkeley-DB.

Run with::

    python examples/quickstart.py

Everything is simulated: latencies are the simulated device times described
in DESIGN.md, so this runs in seconds on a laptop while exhibiting the same
relative behaviour the paper measured on real SSDs.
"""

from __future__ import annotations

from repro.baselines import ExternalHashIndex
from repro.core import CLAM, CLAMConfig
from repro.flashsim import MagneticDisk, SimulationClock
from repro.workloads import WorkloadRunner, WorkloadSpec, build_lookup_then_insert_workload


def basic_usage() -> None:
    """The smallest possible CLAM program."""
    print("=== Basic usage ===")
    clam = CLAM(CLAMConfig.scaled(), storage="intel-ssd")

    clam.insert(b"fingerprint-1", b"chunk-address-1")
    clam.insert(b"fingerprint-2", b"chunk-address-2")

    hit = clam.lookup(b"fingerprint-1")
    miss = clam.lookup(b"fingerprint-999")
    print(f"hit:  value={hit.value!r} latency={hit.latency_ms:.4f} ms (from {hit.served_from.value})")
    print(f"miss: found={miss.found} latency={miss.latency_ms:.4f} ms")

    clam.delete(b"fingerprint-1")
    print(f"after delete: found={clam.lookup(b'fingerprint-1').found}")
    print()


def steady_state_comparison() -> None:
    """Run the paper's default workload against a CLAM and a BDB-style index."""
    print("=== Steady-state workload: CLAM vs Berkeley-DB on disk ===")
    config = CLAMConfig.scaled(
        num_super_tables=16, buffer_capacity_items=128, incarnations_per_table=8
    )
    spec = WorkloadSpec(
        num_keys=6_000,
        target_lsr=0.4,
        recency_window=int(config.total_items_capacity(8) * 0.8),
        seed=1,
    )
    operations = build_lookup_then_insert_workload(spec)

    clam = CLAM(config, storage="intel-ssd")
    clam_report = WorkloadRunner(clam).run(operations)

    bdb = ExternalHashIndex(MagneticDisk(clock=SimulationClock()), cache_pages=32)
    bdb_report = WorkloadRunner(bdb).run(operations, max_operations=4_000)

    print(
        "CLAM  (Intel SSD): lookup %.4f ms, insert %.4f ms, hit rate %.0f%%"
        % (
            clam_report.mean_lookup_latency_ms,
            clam_report.mean_insert_latency_ms,
            100 * clam_report.lookup_success_rate,
        )
    )
    print(
        "BDB   (disk):      lookup %.3f ms, insert %.3f ms"
        % (bdb_report.mean_lookup_latency_ms, bdb_report.mean_insert_latency_ms)
    )
    speedup = bdb_report.mean_lookup_latency_ms / clam_report.mean_lookup_latency_ms
    print(f"lookup speedup: {speedup:.0f}x  (the paper reports ~2 orders of magnitude)")
    print()


def inspecting_internals() -> None:
    """Peek at the BufferHash structure inside the CLAM: super tables,
    buffer flushes, flash incarnations and their FIFO eviction."""
    print("=== Inside the CLAM: the BufferHash structure ===")
    clam = CLAM(
        CLAMConfig.scaled(num_super_tables=4, buffer_capacity_items=64, incarnations_per_table=4),
        storage="transcend-ssd",
    )
    for i in range(2_000):
        clam.insert(b"key-%d" % i, b"value-%d" % i)
    print(f"super tables:      {len(clam.tables)}")
    print(f"buffer flushes:    {clam.total_flushes}")
    print(f"incarnations live: {clam.total_incarnations}")
    print(f"evictions:         {clam.total_evictions}")
    print(f"summary:           {clam.describe()}")
    print()


if __name__ == "__main__":
    basic_usage()
    steady_state_comparison()
    inspecting_internals()
