"""Parameter tuning for CLAMs (§6.4 of the paper).

Three questions are answered analytically:

1. **How should DRAM be split between buffers and Bloom filters?**
   The optimal total buffer size is ``B_opt = F / (s ln²2) ≈ 2F/s`` —
   independent of how much DRAM is available; any extra memory should go to
   Bloom filters.
2. **How much total memory is needed?**  Given a target lookup I/O overhead
   ``C_target``, the Bloom filters need
   ``b ≥ F/(s ln²2) · ln(s ln²2 · cr / C_target)`` bits.
3. **How many super tables?**  The per-super-table buffer size ``B'`` does
   not affect lookup cost but drives insertion cost; on a flash chip the
   sweet spot is ``B'`` equal to the flash block size, while on SSDs larger
   buffers lower the amortised cost but raise the worst case, so the choice
   is the application's latency-tolerance call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.analysis.cost_model import (
    FlashCostParameters,
    amortized_insert_cost_ms,
    expected_lookup_io_cost_ms,
    optimal_buffer_bytes_analytical,
    worst_case_insert_cost_ms,
)


def optimal_buffer_bytes(flash_bytes: float, entry_size_bytes: float = 16.0) -> float:
    """Total buffer allocation minimising expected lookup cost (``≈ 2F/s``)."""
    return optimal_buffer_bytes_analytical(flash_bytes, entry_size_bytes)


def required_bloom_bits(
    params: FlashCostParameters,
    flash_bytes: float,
    target_io_overhead_ms: float,
    entry_size_bytes: float = 16.0,
) -> float:
    """Bloom-filter bits needed to keep expected lookup I/O below a target (§6.4).

    In the paper's bit units ``b' ≥ F/(s ln²2) · ln(s ln²2 · cr / C_target)``;
    with the flash size and entry size expressed in bytes (as throughout this
    package) the factor 8 reappears inside the logarithm, assuming buffers are
    provisioned at their optimal size ``B_opt``.
    """
    if target_io_overhead_ms <= 0:
        raise ValueError("target_io_overhead_ms must be positive")
    ln2_sq = math.log(2) ** 2
    page_read_ms = params.page_read_cost_ms()
    ratio = 8.0 * entry_size_bytes * ln2_sq * page_read_ms / target_io_overhead_ms
    if ratio <= 1.0:
        # Even with no Bloom filters the target is met (very cheap reads).
        return 0.0
    return flash_bytes / (entry_size_bytes * ln2_sq) * math.log(ratio)


def recommended_super_tables(
    total_buffer_bytes: float,
    params: FlashCostParameters,
    max_worst_case_ms: Optional[float] = None,
) -> int:
    """Number of super tables (= number of buffers) to create.

    On a raw flash chip the per-buffer size should equal the flash block size
    (Figure 4a/b); on an SSD, the largest per-buffer size whose worst-case
    flush latency stays within ``max_worst_case_ms`` is chosen (Figure 4c/d).
    """
    if total_buffer_bytes <= 0:
        raise ValueError("total_buffer_bytes must be positive")
    if not params.is_ssd:
        per_buffer = params.block_size
    else:
        per_buffer = params.block_size
        if max_worst_case_ms is not None:
            # Shrink the buffer until its flush fits the latency budget.
            while per_buffer > params.page_size and (
                worst_case_insert_cost_ms(params, per_buffer) > max_worst_case_ms
            ):
                per_buffer //= 2
    return max(1, int(round(total_buffer_bytes / per_buffer)))


@dataclass(frozen=True)
class TuningReport:
    """Recommended CLAM parameters for a device and DRAM/flash budget."""

    flash_bytes: float
    memory_bytes: float
    entry_size_bytes: float
    buffer_total_bytes: float
    bloom_total_bytes: float
    per_buffer_bytes: float
    num_super_tables: int
    incarnations_per_table: float
    expected_lookup_io_ms: float
    amortized_insert_ms: float
    worst_case_insert_ms: float


def tune(
    params: FlashCostParameters,
    flash_bytes: float,
    memory_bytes: float,
    entry_size_bytes: float = 16.0,
    max_worst_case_insert_ms: Optional[float] = None,
) -> TuningReport:
    """Produce a full parameter recommendation for a DRAM + flash budget.

    Mirrors §6.4 end to end: split memory between buffers and Bloom filters,
    size the per-super-table buffer, and report the resulting analytical
    insertion and lookup costs.
    """
    if memory_bytes <= 0 or flash_bytes <= 0:
        raise ValueError("memory_bytes and flash_bytes must be positive")
    buffer_total = min(optimal_buffer_bytes(flash_bytes, entry_size_bytes), memory_bytes * 0.5)
    bloom_total = memory_bytes - buffer_total
    num_tables = recommended_super_tables(buffer_total, params, max_worst_case_insert_ms)
    per_buffer = buffer_total / num_tables
    incarnations = flash_bytes / buffer_total
    return TuningReport(
        flash_bytes=flash_bytes,
        memory_bytes=memory_bytes,
        entry_size_bytes=entry_size_bytes,
        buffer_total_bytes=buffer_total,
        bloom_total_bytes=bloom_total,
        per_buffer_bytes=per_buffer,
        num_super_tables=num_tables,
        incarnations_per_table=incarnations,
        expected_lookup_io_ms=expected_lookup_io_cost_ms(
            params, flash_bytes, buffer_total, bloom_total, entry_size_bytes
        ),
        amortized_insert_ms=amortized_insert_cost_ms(params, per_buffer, entry_size_bytes),
        worst_case_insert_ms=worst_case_insert_cost_ms(params, per_buffer),
    )
