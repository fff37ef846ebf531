"""§5.2 layout ablation: whole-device circular log vs per-partition SSD writes.

The paper argues that on an SSD, writing each super table's incarnations into
its own statically assigned region interleaves writes from different regions
and defeats the FTL's sequential-write fast path, so BufferHash instead
treats the whole SSD as one circular log shared by every super table.  This
bench measures both layouts on the Intel-like SSD under the same insert
stream.
"""

from __future__ import annotations

from benchmarks.common import print_table, standard_config
from repro.core import CLAM
from repro.core.storage import PartitionedDeviceStore
from repro.flashsim import SSD, SimulationClock

NUM_INSERTS = 20_000


def _run(layout: str):
    ssd = SSD(clock=SimulationClock())
    config = standard_config()
    store = None
    if layout == "per-partition":
        store = PartitionedDeviceStore(
            ssd,
            num_partitions=config.num_super_tables,
            pages_per_incarnation=config.pages_per_incarnation(ssd.geometry.page_size) * 2,
        )
    clam = CLAM(config, storage=ssd, store=store)
    total_latency = 0.0
    worst = 0.0
    for i in range(NUM_INSERTS):
        result = clam.insert(b"layout-key-%d" % i, b"v")
        total_latency += result.latency_ms
        worst = max(worst, result.latency_ms)
    return {
        "mean_insert_ms": total_latency / NUM_INSERTS,
        "worst_insert_ms": worst,
        "gc_stalls": ssd.gc_stall_count,
        "flushes": clam.total_flushes,
    }


def run_layout_ablation():
    return {
        "whole-device log": _run("whole-device"),
        "per-partition writes": _run("per-partition"),
    }


def test_ablation_ssd_layout(benchmark):
    results = benchmark.pedantic(run_layout_ablation, rounds=1, iterations=1)

    print_table(
        "Ablation (§5.2): SSD layout for incarnation writes",
        ["layout", "insert mean (ms)", "insert worst (ms)", "GC stalls", "flushes"],
        [
            (name, row["mean_insert_ms"], row["worst_insert_ms"], row["gc_stalls"], row["flushes"])
            for name, row in results.items()
        ],
    )

    whole = results["whole-device log"]
    partitioned = results["per-partition writes"]
    # The single circular log keeps inserts meaningfully cheaper on average.
    assert whole["mean_insert_ms"] * 1.3 < partitioned["mean_insert_ms"]
    # Both layouts perform the same number of buffer flushes; only the write
    # pattern (and therefore device behaviour) differs.
    assert whole["flushes"] == partitioned["flushes"]
