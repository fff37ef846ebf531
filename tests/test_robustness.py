"""Robustness and cross-checking tests: unusual paths, consistency between
the analytical model and the simulator, and graceful handling of edge cases."""

import pytest

from repro.analysis import INTEL_SSD_COSTS, required_bloom_bits
from repro.analysis.cost_model import expected_lookup_io_cost_ms
from repro.core import CLAM, CLAMConfig, WholeDeviceLogStore
from repro.core.incarnation import required_pages
from repro.flashsim import FlashChip, SimulationClock
from repro.flashsim.device import DeviceGeometry
from repro.flashsim.flash_chip import FlashChipProfile, GENERIC_FLASH_CHIP_PROFILE
from repro.workloads import WorkloadRunner, WorkloadSpec, build_lookup_then_insert_workload

GB = 1024**3


class TestLogStoreSkipsLiveRegions:
    def test_wrap_around_live_region_preserves_data(self, small_ssd):
        """When the circular log wraps onto a region that is still live, it must
        skip it rather than overwrite it."""
        store = WholeDeviceLogStore(small_ssd)
        pages_per_incarnation = store.capacity_pages // 8

        # One long-lived incarnation near the start of the device.
        keeper_address, _ = store.write_incarnation(0, [b"keeper"] + [b""] * (pages_per_incarnation - 1))
        # Churn through many short-lived incarnations, releasing each
        # immediately, so the head wraps repeatedly past the keeper.
        previous = None
        for i in range(30):
            if previous is not None:
                store.release(*previous)
            address, _ = store.write_incarnation(0, [b"churn-%d" % i] * pages_per_incarnation)
            previous = (address, pages_per_incarnation)
        assert store.wrap_count >= 1
        assert store.read_incarnation(keeper_address, 1)[0] == [b"keeper"]


class TestRequiredPages:
    def test_scales_with_payload(self):
        small = required_pages({b"k": b"v"}, page_size=512)
        large = required_pages({b"key-%d" % i: b"x" * 64 for i in range(100)}, page_size=512)
        assert large > small

    def test_validation(self):
        with pytest.raises(ValueError):
            required_pages({}, page_size=4)
        with pytest.raises(ValueError):
            required_pages({}, page_size=512, fill_factor=0.0)

    def test_large_values_do_not_break_flushes(self):
        """Values much larger than the configured entry-size estimate must not
        break incarnation serialisation (the incarnation simply grows)."""
        clam = CLAM(
            CLAMConfig.scaled(num_super_tables=2, buffer_capacity_items=16, incarnations_per_table=4),
            storage="intel-ssd",
        )
        for i in range(200):
            clam.insert(b"big-%d" % i, b"v" * 200)
        recent = [b"big-%d" % i for i in range(200 - 32, 200)]
        assert all(clam.lookup(key).found for key in recent)


class TestAnalysisSimulatorConsistency:
    def test_bloom_sizing_formula_consistent_with_cost_curve(self):
        """The §6.4 closed form for the Bloom budget must actually achieve the
        target overhead when plugged back into the §6.2 cost expression."""
        flash = 32 * GB
        target_ms = 0.5
        bits = required_bloom_bits(INTEL_SSD_COSTS, flash, target_ms, entry_size_bytes=32)
        achieved = expected_lookup_io_cost_ms(
            INTEL_SSD_COSTS,
            flash_bytes=flash,
            buffer_bytes=flash / (8 * 32 * 0.48),  # ~B_opt
            bloom_bytes=bits / 8.0,
            entry_size_bytes=32,
        )
        assert achieved <= target_ms * 1.2

    def test_simulated_miss_cost_below_analytical_bound(self):
        """Measured spurious-lookup I/O on the simulator should not exceed what
        the analytical model predicts for the configured Bloom budget."""
        config = CLAMConfig.scaled(
            num_super_tables=8, buffer_capacity_items=64, incarnations_per_table=8,
            bloom_bits_per_entry=16.0,
        )
        clam = CLAM(config, storage="intel-ssd")
        spec = WorkloadSpec(num_keys=5_000, target_lsr=0.0, recency_window=2_000, seed=3)
        report = WorkloadRunner(clam).run(build_lookup_then_insert_workload(spec))
        spurious_fraction = sum(1 for reads in report.lookup_flash_reads if reads) / report.lookups
        # 16 bits/entry corresponds to a ~1e-3 per-filter false positive rate;
        # with at most 8 incarnations the spurious fraction stays below ~1%.
        assert spurious_fraction < 0.01


class TestFlashChipCLAM:
    def test_full_clam_on_raw_chip(self):
        """A CLAM on a raw flash chip (partitioned layout, explicit erases)
        behaves correctly and keeps insert latency amortised."""
        clock = SimulationClock()
        profile = FlashChipProfile(
            name="clam-chip",
            geometry=DeviceGeometry(page_size=512, pages_per_block=8, num_blocks=64),
            cost_model=GENERIC_FLASH_CHIP_PROFILE.cost_model,
        )
        chip = FlashChip(profile=profile, clock=clock)
        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
        )
        clam = CLAM(config, storage=chip)
        keys = [b"chip-%d" % i for i in range(3_500)]
        for key in keys:
            clam.insert(key, b"v")
        assert clam.stats.mean_insert_latency_ms < 0.2
        assert chip.stats.count() > 0
        guaranteed = config.num_super_tables * config.buffer_capacity_items
        assert all(clam.lookup(key).found for key in keys[-guaranteed:])
        # Wrapping partitions must have erased blocks along the way.
        assert sum(chip.erase_count_per_block.values()) > 0
