"""Tests for the §6 analytical cost model, tuning and cost-efficiency analysis."""


import pytest

from repro.analysis import (
    FLASH_CHIP_COSTS,
    INTEL_SSD_COSTS,
    PAPER_PRICING,
    amortized_insert_cost_ms,
    bloom_false_positive_probability,
    cost_efficiency_table,
    expected_lookup_io_cost_ms,
    required_bloom_bits,
    recommended_super_tables,
    tune,
    worst_case_insert_cost_ms,
)
from repro.analysis.cost_model import (
    optimal_buffer_bytes_analytical,
    sweep_insert_cost,
    sweep_lookup_overhead,
)
from repro.analysis.cost_efficiency import ops_per_second_from_latency

GB = 1024**3
MB = 1024**2
KB = 1024


class TestInsertCostModel:
    def test_amortized_cost_decreases_with_buffer_size(self):
        small = amortized_insert_cost_ms(INTEL_SSD_COSTS, 4 * KB)
        large = amortized_insert_cost_ms(INTEL_SSD_COSTS, 256 * KB)
        assert large < small

    def test_worst_case_cost_increases_with_buffer_size(self):
        small = worst_case_insert_cost_ms(INTEL_SSD_COSTS, 4 * KB)
        large = worst_case_insert_cost_ms(INTEL_SSD_COSTS, 1024 * KB)
        assert large > small

    def test_flash_chip_block_size_is_the_knee(self):
        """Figure 4(a): on a raw chip the amortised cost drops sharply up to the
        flash block size and is essentially flat beyond it — the block size is
        the operating point the paper recommends."""
        block = FLASH_CHIP_COSTS.block_size
        at_block = amortized_insert_cost_ms(FLASH_CHIP_COSTS, block)
        much_smaller = amortized_insert_cost_ms(FLASH_CHIP_COSTS, block // 16)
        much_larger = amortized_insert_cost_ms(FLASH_CHIP_COSTS, block * 16)
        # Sub-block buffers pay heavily for copying and partial erases.
        assert much_smaller > at_block * 2
        # Beyond the block size there is almost nothing left to gain.
        assert much_larger > at_block * 0.85

    def test_amortized_cost_magnitude_matches_paper(self):
        """With a 128 KB buffer and 16-byte entries, the amortised insert cost on
        an SSD should be well under 0.01 ms (the paper measures 0.006-0.007 ms
        including DRAM work)."""
        cost = amortized_insert_cost_ms(INTEL_SSD_COSTS, 128 * KB, entry_size_bytes=16)
        assert cost < 0.01

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            amortized_insert_cost_ms(INTEL_SSD_COSTS, 0)
        with pytest.raises(ValueError):
            worst_case_insert_cost_ms(INTEL_SSD_COSTS, -5)

    def test_sweep_rows(self):
        rows = sweep_insert_cost(INTEL_SSD_COSTS, [4 * KB, 128 * KB])
        assert len(rows) == 2
        assert set(rows[0]) == {"buffer_bytes", "amortized_ms", "worst_case_ms"}


class TestLookupCostModel:
    def test_false_positive_probability_falls_with_bloom_size(self):
        small = bloom_false_positive_probability(32 * GB, 2 * GB, 128 * MB, 32)
        large = bloom_false_positive_probability(32 * GB, 2 * GB, 1 * GB, 32)
        assert large < small

    def test_expected_io_overhead_falls_with_bloom_size(self):
        """Figure 3's qualitative shape: more Bloom memory, less spurious I/O,
        with diminishing returns."""
        sizes = [64 * MB, 256 * MB, 1 * GB, 4 * GB]
        overheads = [
            expected_lookup_io_cost_ms(INTEL_SSD_COSTS, 32 * GB, 2 * GB, size, 32)
            for size in sizes
        ]
        assert all(a > b for a, b in zip(overheads, overheads[1:]))

    def test_one_gb_of_bloom_filters_suffices_for_32gb_flash(self):
        """The paper's worked example (§6.4): with 32 GB flash and 32-byte
        effective entries, ~1 GB of Bloom filters keeps expected I/O overhead
        below 1 ms."""
        overhead = expected_lookup_io_cost_ms(INTEL_SSD_COSTS, 32 * GB, 2 * GB, 1 * GB, 32)
        assert overhead < 1.0

    def test_larger_flash_needs_more_bloom_memory(self):
        overhead_32 = expected_lookup_io_cost_ms(INTEL_SSD_COSTS, 32 * GB, 2 * GB, 256 * MB, 32)
        overhead_64 = expected_lookup_io_cost_ms(INTEL_SSD_COSTS, 64 * GB, 2 * GB, 256 * MB, 32)
        assert overhead_64 > overhead_32

    def test_optimal_buffer_size_matches_paper_worked_example(self):
        """§7.1.1: with 32 GB of flash and 32-byte effective entries the optimal
        total buffer allocation is ~266 MB (the paper measures the empirical
        optimum at 256 MB)."""
        optimal = optimal_buffer_bytes_analytical(32 * GB, 32)
        assert 230 * MB < optimal < 300 * MB

    def test_lookup_cost_minimised_near_analytical_optimum(self):
        """§6.4: scanning the buffer/Bloom split, the minimum should sit near
        B_opt = F/(s ln²2) — the empirical counterpart is Figure 5."""
        flash = 32 * GB
        memory = 4 * GB
        entry = 32
        optimum = optimal_buffer_bytes_analytical(flash, entry)
        candidates = [
            optimum / 8,
            optimum / 2,
            optimum,
            (optimum + memory) / 2,
            memory * 0.95,
        ]
        costs = [
            expected_lookup_io_cost_ms(INTEL_SSD_COSTS, flash, size, memory - size, entry)
            for size in candidates
        ]
        assert costs.index(min(costs)) == 2

    def test_sweep_lookup_overhead_rows(self):
        rows = sweep_lookup_overhead(INTEL_SSD_COSTS, 32 * GB, [128 * MB, 1 * GB])
        assert len(rows) == 2
        assert rows[0]["expected_io_overhead_ms"] > rows[1]["expected_io_overhead_ms"]


class TestTuning:
    def test_required_bloom_bits_decrease_with_looser_target(self):
        strict = required_bloom_bits(INTEL_SSD_COSTS, 32 * GB, 0.01, 32)
        loose = required_bloom_bits(INTEL_SSD_COSTS, 32 * GB, 1.0, 32)
        assert loose < strict

    def test_required_bloom_bits_zero_when_target_trivially_met(self):
        assert required_bloom_bits(INTEL_SSD_COSTS, 32 * GB, 10_000.0, 32) == 0.0

    def test_recommended_super_tables_chip_uses_block_size(self):
        tables = recommended_super_tables(2 * GB, FLASH_CHIP_COSTS)
        assert tables == pytest.approx(2 * GB / FLASH_CHIP_COSTS.block_size, rel=0.01)

    def test_recommended_super_tables_respects_latency_budget(self):
        generous = recommended_super_tables(2 * GB, INTEL_SSD_COSTS, max_worst_case_ms=100.0)
        strict = recommended_super_tables(2 * GB, INTEL_SSD_COSTS, max_worst_case_ms=1.0)
        assert strict > generous  # smaller buffers -> more super tables

    def test_tune_produces_consistent_report(self):
        report = tune(INTEL_SSD_COSTS, flash_bytes=32 * GB, memory_bytes=4 * GB, entry_size_bytes=16)
        assert report.buffer_total_bytes + report.bloom_total_bytes == pytest.approx(4 * GB)
        assert report.num_super_tables >= 1
        assert report.incarnations_per_table > 1
        assert report.amortized_insert_ms < report.worst_case_insert_ms

    def test_tune_rejects_invalid_budget(self):
        with pytest.raises(ValueError):
            tune(INTEL_SSD_COSTS, flash_bytes=0, memory_bytes=4 * GB)


class TestCostEfficiency:
    def test_ops_per_second_from_latency(self):
        assert ops_per_second_from_latency(1.0) == pytest.approx(1000.0)
        with pytest.raises(ValueError):
            ops_per_second_from_latency(0.0)

    def test_clam_beats_dram_ssd_by_orders_of_magnitude(self):
        """The paper's headline: 1-2 orders of magnitude more ops/s/$ than a
        RamSan DRAM-SSD."""
        entries = cost_efficiency_table(
            measured_latencies_ms={"clam-intel": 0.06, "disk-bdb": 7.0},
            fixed_ops_per_second={"ramsan-dram-ssd": 300_000},
        )
        by_platform = {entry.platform: entry for entry in entries}
        clam = by_platform[PAPER_PRICING["clam-intel"].name]
        ramsan = by_platform[PAPER_PRICING["ramsan-dram-ssd"].name]
        ratio = clam.ops_per_second_per_dollar / ramsan.ops_per_second_per_dollar
        assert ratio > 10

    def test_entries_sorted_by_efficiency(self):
        entries = cost_efficiency_table(
            measured_latencies_ms={"clam-intel": 0.06, "disk-bdb": 7.0},
        )
        efficiencies = [entry.ops_per_second_per_dollar for entry in entries]
        assert efficiencies == sorted(efficiencies, reverse=True)

    def test_unknown_platform_rejected(self):
        with pytest.raises(KeyError):
            cost_efficiency_table(measured_latencies_ms={"nonexistent": 1.0})
