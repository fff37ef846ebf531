"""Figure 4: amortised and worst-case insertion cost vs per-super-table buffer size.

Four panels in the paper: (a) average and (b) worst-case cost on a raw flash
chip, (c) average and (d) worst-case cost on an Intel SSD.  The flash-chip
curves bottom out when the buffer matches the flash block size; on the SSD a
larger buffer keeps lowering the amortised cost but raises the worst case.
"""

from __future__ import annotations

import argparse

from benchmarks.common import (
    add_telemetry_arg,
    dump_telemetry,
    print_table,
    standard_clam,
    write_bench_json,
)
from repro.analysis.cost_model import (
    FLASH_CHIP_COSTS,
    INTEL_SSD_COSTS,
    sweep_insert_cost,
)
from repro.telemetry import build_snapshot

KB = 1024

BUFFER_SIZES_KB = [1, 4, 16, 64, 128, 256, 1024, 4096, 16_384]


def run_figure4():
    sizes = [size * KB for size in BUFFER_SIZES_KB]
    return {
        "chip": sweep_insert_cost(FLASH_CHIP_COSTS, sizes, entry_size_bytes=16),
        "ssd": sweep_insert_cost(INTEL_SSD_COSTS, sizes, entry_size_bytes=16),
    }


def test_fig4_insert_cost_vs_buffer_size(benchmark):
    results = benchmark.pedantic(run_figure4, rounds=1, iterations=1)

    rows = []
    for size_kb, chip_row, ssd_row in zip(BUFFER_SIZES_KB, results["chip"], results["ssd"]):
        rows.append(
            (
                size_kb,
                chip_row["amortized_ms"],
                chip_row["worst_case_ms"],
                ssd_row["amortized_ms"],
                ssd_row["worst_case_ms"],
            )
        )
    print_table(
        "Figure 4: insertion cost vs buffer size",
        [
            "buffer (KB)",
            "chip avg (ms)",
            "chip worst (ms)",
            "SSD avg (ms)",
            "SSD worst (ms)",
        ],
        rows,
    )

    chip_avg = [row["amortized_ms"] for row in results["chip"]]
    ssd_avg = [row["amortized_ms"] for row in results["ssd"]]
    ssd_worst = [row["worst_case_ms"] for row in results["ssd"]]
    block_kb = FLASH_CHIP_COSTS.block_size // KB

    # (a) The flash-chip amortised cost drops sharply up to the block size and
    # is essentially flat beyond it: the block size is the knee of the curve.
    at_block = chip_avg[BUFFER_SIZES_KB.index(block_kb)]
    assert chip_avg[BUFFER_SIZES_KB.index(16)] > 2 * at_block
    assert min(chip_avg) > 0.85 * at_block
    # (c) On the SSD, larger buffers keep reducing the amortised cost.
    assert ssd_avg[-1] < ssd_avg[0]
    # (d) ...but increase the worst-case (flush) latency.
    assert ssd_worst[-1] > ssd_worst[BUFFER_SIZES_KB.index(128)]
    # The paper's chosen operating point (128 KB buffers) gives ~microsecond
    # amortised inserts and a worst case of a few milliseconds on the SSD.
    at_128 = BUFFER_SIZES_KB.index(128)
    assert ssd_avg[at_128] < 0.01
    assert ssd_worst[at_128] < 10.0


def main() -> None:
    """Stand-alone CLI (CI benchmark smoke): run the sweep and print/emit it.

    ``--quick`` keeps the curve's knee points only; the model is analytical,
    so this is about exercising the code path cheaply, not about precision.
    """
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="knee-point sizes only")
    add_telemetry_arg(parser)
    args = parser.parse_args()
    global BUFFER_SIZES_KB
    if args.quick:
        BUFFER_SIZES_KB = [16, 128, 1024]
    results = run_figure4()
    rows = [
        (
            size_kb,
            chip_row["amortized_ms"],
            chip_row["worst_case_ms"],
            ssd_row["amortized_ms"],
            ssd_row["worst_case_ms"],
        )
        for size_kb, chip_row, ssd_row in zip(BUFFER_SIZES_KB, results["chip"], results["ssd"])
    ]
    print_table(
        "Figure 4: insertion cost vs buffer size",
        ["buffer (KB)", "chip avg (ms)", "chip worst (ms)", "SSD avg (ms)", "SSD worst (ms)"],
        rows,
    )
    # Knee-point sanity that must hold in either mode: the SSD's amortised
    # cost keeps falling with buffer size while its worst case rises.
    ssd_avg = [row["amortized_ms"] for row in results["ssd"]]
    ssd_worst = [row["worst_case_ms"] for row in results["ssd"]]
    assert ssd_avg[-1] < ssd_avg[0]
    assert ssd_worst[-1] > ssd_worst[0]
    path = write_bench_json(
        "fig4_insert_cost",
        {
            "buffer_sizes_kb": list(BUFFER_SIZES_KB),
            "quick": args.quick,
            "chip": results["chip"],
            "ssd": results["ssd"],
        },
        quick=args.quick,
    )
    print(f"wrote {path}")
    if args.telemetry_out is not None:
        # The sweep itself is analytical (no CLAM runs); the telemetry dump
        # is the measured counterpart: a telemetry-enabled CLAM at the
        # standard operating point driven through enough inserts to flush,
        # whose insert-latency histogram (p50 amortised, p999 flush spikes)
        # mirrors the model's average/worst-case split.
        clam = standard_clam(telemetry_enabled=True)
        for index in range(4000):
            clam.insert(b"fig4-key-%06d" % index, b"v" * 8)
        dump_telemetry(
            args.telemetry_out, build_snapshot(per_shard={"clam": clam.telemetry})
        )


if __name__ == "__main__":
    main()
