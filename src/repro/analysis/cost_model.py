"""Closed-form I/O cost model of BufferHash (§6 of the paper).

The paper models flash I/O with linear cost functions — reading, writing and
erasing ``x`` bytes cost ``a_r + b_r x``, ``a_w + b_w x`` and ``a_e + b_e x``
respectively — and derives:

* the amortised and worst-case insertion cost as a function of the per-super-
  table buffer size ``B'`` (Figure 4, equations C1-C3);
* the expected lookup I/O cost as a function of the flash size ``F``, the
  total buffer size ``B`` and the total Bloom filter size ``b``
  (Figure 3, §6.2).

These functions are pure arithmetic — no simulation — and the benchmark
harness uses them to regenerate Figures 3 and 4 and to cross-check the
simulator's measured behaviour.

Notation (Table 1 of the paper)
-------------------------------
``B``      total size of all buffers (bits or bytes — consistent units)
``B'``     size of a single buffer (one super table)
``b``      total size of all Bloom filters
``k``      incarnations per super table = F / B
``F``      total flash size
``s``      average size of a hash entry
``Sp``     flash page (or SSD sector) size
``Sb``     flash block size
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class FlashCostParameters:
    """Linear I/O cost coefficients for one device (§6.1).

    All fixed costs (``a_*``) are milliseconds; all per-byte costs (``b_*``)
    are milliseconds per byte.  ``page_size`` and ``block_size`` are bytes.
    ``is_ssd`` selects the SSD simplification of §6.1 (erase and copy costs
    are folded into the FTL's write cost, so C2 = C3 = 0).
    """

    name: str
    read_fixed_ms: float
    read_per_byte_ms: float
    write_fixed_ms: float
    write_per_byte_ms: float
    erase_fixed_ms: float
    erase_per_byte_ms: float
    page_size: int
    block_size: int
    is_ssd: bool

    def page_read_cost_ms(self) -> float:
        """Cost of reading one page/sector (the ``cr`` term of §6.2)."""
        return self.read_fixed_ms + self.read_per_byte_ms * self.page_size


#: Generic NAND chip, matching :data:`repro.flashsim.flash_chip.GENERIC_FLASH_CHIP_PROFILE`.
FLASH_CHIP_COSTS = FlashCostParameters(
    name="flash-chip",
    read_fixed_ms=0.025,
    read_per_byte_ms=1.0 / (25 * 1024 * 1024) * 1000.0,
    write_fixed_ms=0.2,
    write_per_byte_ms=1.0 / (8 * 1024 * 1024) * 1000.0,
    erase_fixed_ms=1.5,
    erase_per_byte_ms=1.0 / (128 * 1024 * 1024) * 1000.0,
    page_size=2048,
    block_size=2048 * 64,
    is_ssd=False,
)

#: Intel X18-M style SSD, matching :data:`repro.flashsim.ssd.INTEL_SSD_PROFILE`.
INTEL_SSD_COSTS = FlashCostParameters(
    name="intel-ssd",
    read_fixed_ms=0.15,
    read_per_byte_ms=1.0 / (250 * 1024 * 1024) * 1000.0,
    write_fixed_ms=0.08,
    write_per_byte_ms=1.0 / (70 * 1024 * 1024) * 1000.0,
    erase_fixed_ms=0.0,
    erase_per_byte_ms=0.0,
    page_size=512,
    block_size=512 * 256,
    is_ssd=True,
)

#: Transcend style SSD, matching :data:`repro.flashsim.ssd.TRANSCEND_SSD_PROFILE`.
TRANSCEND_SSD_COSTS = FlashCostParameters(
    name="transcend-ssd",
    read_fixed_ms=0.45,
    read_per_byte_ms=1.0 / (120 * 1024 * 1024) * 1000.0,
    write_fixed_ms=0.5,
    write_per_byte_ms=1.0 / (28 * 1024 * 1024) * 1000.0,
    erase_fixed_ms=0.0,
    erase_per_byte_ms=0.0,
    page_size=512,
    block_size=512 * 256,
    is_ssd=True,
)


def _flush_costs_ms(params: FlashCostParameters, buffer_bytes: float) -> float:
    """C1 + C2 + C3: the cost of flushing one buffer to flash (§6.1)."""
    pages_per_flush = math.ceil(buffer_bytes / params.page_size)
    write_cost = params.write_fixed_ms + params.write_per_byte_ms * pages_per_flush * params.page_size
    if params.is_ssd:
        return write_cost
    pages_per_block = params.block_size // params.page_size
    # C2: erase cost, paid on the fraction of flushes that cross a block boundary.
    erase_fraction = min(1.0, pages_per_flush / pages_per_block)
    blocks_erased = math.ceil(pages_per_flush / pages_per_block)
    erase_cost = erase_fraction * (
        params.erase_fixed_ms + params.erase_per_byte_ms * blocks_erased * params.block_size
    )
    # C3: copying valid pages that share the erased block with the evicted incarnation.
    leftover_pages = (pages_per_block - pages_per_flush) % pages_per_block
    copy_cost = 0.0
    if leftover_pages > 0:
        copy_bytes = leftover_pages * params.page_size
        copy_cost = (
            params.read_fixed_ms
            + params.read_per_byte_ms * copy_bytes
            + params.write_fixed_ms
            + params.write_per_byte_ms * copy_bytes
        )
    return write_cost + erase_cost + copy_cost


def worst_case_insert_cost_ms(params: FlashCostParameters, buffer_bytes: float) -> float:
    """Worst-case insertion cost: the full flush cost (C1 + C2 + C3)."""
    if buffer_bytes <= 0:
        raise ValueError("buffer_bytes must be positive")
    return _flush_costs_ms(params, buffer_bytes)


def amortized_insert_cost_ms(
    params: FlashCostParameters, buffer_bytes: float, entry_size_bytes: float = 16.0
) -> float:
    """Amortised insertion cost: flush cost shared over the buffer's entries.

    ``C_amortized = (C1 + C2 + C3) * s / B'`` — independent of the number of
    keys inserted and inversely proportional to the buffer size.
    """
    if buffer_bytes <= 0:
        raise ValueError("buffer_bytes must be positive")
    if entry_size_bytes <= 0:
        raise ValueError("entry_size_bytes must be positive")
    return _flush_costs_ms(params, buffer_bytes) * entry_size_bytes / buffer_bytes


def bloom_false_positive_probability(
    flash_bytes: float,
    buffer_bytes: float,
    bloom_bytes: float,
    entry_size_bytes: float = 16.0,
) -> float:
    """Probability that one incarnation's Bloom filter fires spuriously.

    With ``k = F/B`` incarnations per super table, ``n' = B'/s`` entries per
    incarnation and ``m' = b'/k`` filter bits per incarnation, the optimal
    number of hash functions is ``h = (m'/n') ln 2`` and the hit probability
    is ``(1/2)^h`` (§6.2).  Expressed with totals the per-super-table split
    cancels out, so the function takes total sizes.
    """
    if min(flash_bytes, buffer_bytes, bloom_bytes, entry_size_bytes) <= 0:
        raise ValueError("all sizes must be positive")
    incarnations = flash_bytes / buffer_bytes
    entries_per_incarnation = buffer_bytes / entry_size_bytes  # per super table: B'/s; ratio-equal
    bits_per_incarnation = (bloom_bytes * 8.0) / incarnations
    bits_per_entry = bits_per_incarnation / entries_per_incarnation
    num_hashes = max(bits_per_entry * math.log(2), 1e-9)
    return 0.5 ** num_hashes


def expected_lookup_io_cost_ms(
    params: FlashCostParameters,
    flash_bytes: float,
    buffer_bytes: float,
    bloom_bytes: float,
    entry_size_bytes: float = 16.0,
) -> float:
    """Expected flash I/O cost of an unsuccessful lookup (§6.2, Figure 3).

    ``C_lookup = k * p * cr`` where ``k = F/B`` is the number of incarnations
    examined via Bloom filters, ``p`` the per-filter false-positive
    probability and ``cr`` the cost of one page read.
    """
    incarnations = flash_bytes / buffer_bytes
    probability = bloom_false_positive_probability(
        flash_bytes, buffer_bytes, bloom_bytes, entry_size_bytes
    )
    return incarnations * probability * params.page_read_cost_ms()


def optimal_buffer_bytes_analytical(flash_bytes: float, entry_size_bytes: float = 16.0) -> float:
    """The paper's closed form for the optimal total buffer size (§6.4).

    In the paper's bit units the optimum is ``B_opt = F / (s (ln 2)^2)``;
    expressed with the flash size in bytes and the entry size in bytes this
    becomes ``F / (8 s (ln 2)^2)``, which reproduces the worked example of
    §7.1.1: 32 GB of flash with 32-byte effective entries gives ≈ 260-266 MB
    of buffers, everything else going to Bloom filters.
    """
    if flash_bytes <= 0 or entry_size_bytes <= 0:
        raise ValueError("sizes must be positive")
    return flash_bytes / (8.0 * entry_size_bytes * (math.log(2) ** 2))


def sweep_insert_cost(
    params: FlashCostParameters,
    buffer_sizes_bytes: list[float],
    entry_size_bytes: float = 16.0,
) -> list[dict]:
    """Convenience sweep used by the Figure 4 benchmark."""
    rows = []
    for size in buffer_sizes_bytes:
        rows.append(
            {
                "buffer_bytes": size,
                "amortized_ms": amortized_insert_cost_ms(params, size, entry_size_bytes),
                "worst_case_ms": worst_case_insert_cost_ms(params, size),
            }
        )
    return rows


def sweep_lookup_overhead(
    params: FlashCostParameters,
    flash_bytes: float,
    bloom_sizes_bytes: list[float],
    entry_size_bytes: float = 32.0,
) -> list[dict]:
    """Convenience sweep used by the Figure 3 benchmark.

    The paper's Figure 3 uses an effective entry size of 32 bytes (16-byte
    entries at 50 % hash-table utilisation).
    """
    buffer_bytes = optimal_buffer_bytes_analytical(flash_bytes, entry_size_bytes)
    rows = []
    for bloom_bytes in bloom_sizes_bytes:
        rows.append(
            {
                "bloom_bytes": bloom_bytes,
                "expected_io_overhead_ms": expected_lookup_io_cost_ms(
                    params, flash_bytes, buffer_bytes, bloom_bytes, entry_size_bytes
                ),
            }
        )
    return rows
