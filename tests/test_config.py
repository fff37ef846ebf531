"""Tests for CLAM configuration and the DRAM-side cost constants."""

import pytest

from repro.core import CLAMConfig, ConfigurationError
from repro.core.config import BLOOM_PROBE_PER_INCARNATION_MS, BLOOM_SLICED_QUERY_MS


def test_bit_slicing_cheaper_at_many_incarnations():
    """The point of §5.1.3: with 16 incarnations, one sliced query costs less
    than probing every per-incarnation filter."""
    assert BLOOM_SLICED_QUERY_MS < BLOOM_PROBE_PER_INCARNATION_MS * 16


class TestCLAMConfig:
    def test_defaults_are_valid(self):
        config = CLAMConfig()
        assert config.num_super_tables > 0
        assert config.buffer_slots >= config.buffer_capacity_items

    def test_buffer_slots_account_for_utilization(self):
        config = CLAMConfig(buffer_capacity_items=100)
        assert config.buffer_slots == 200

    def test_buffer_bytes(self):
        config = CLAMConfig(buffer_capacity_items=100, entry_size_bytes=16)
        assert config.buffer_bytes == 200 * 16

    def test_pages_per_incarnation(self):
        config = CLAMConfig(buffer_capacity_items=128, entry_size_bytes=16)
        assert config.pages_per_incarnation(512) == (256 * 16) // 512

    def test_pages_per_incarnation_rejects_bad_page_size(self):
        with pytest.raises(ConfigurationError):
            CLAMConfig().pages_per_incarnation(0)

    def test_total_items_capacity(self):
        config = CLAMConfig(num_super_tables=4, buffer_capacity_items=100)
        assert config.total_items_capacity(9) == 4 * 100 * 10

    def test_bloom_bits_per_incarnation(self):
        config = CLAMConfig(buffer_capacity_items=100, bloom_bits_per_entry=16)
        assert config.bloom_bits_per_incarnation() == 1600

    def test_with_overrides(self):
        config = CLAMConfig().with_overrides(num_super_tables=3)
        assert config.num_super_tables == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_super_tables": 0},
            {"buffer_capacity_items": 0},
            {"entry_size_bytes": 0},
            {"incarnations_per_table": 0},
            {"bloom_bits_per_entry": 0},
            {"eviction_policy_name": "bogus"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CLAMConfig(**kwargs)

    def test_paper_scale_matches_section_7_1_1(self):
        config = CLAMConfig.paper_scale()
        assert config.num_super_tables == 16_384
        assert config.buffer_capacity_items == 4_096
        assert config.incarnations_per_table == 16
        # 4096 entries at 50% utilisation and 16 bytes/entry = a 128 KB buffer.
        assert config.buffer_bytes == 128 * 1024
        # 2 GB total across all buffers, as the paper configures.
        assert config.total_buffer_bytes == 2 * 1024**3

    def test_scaled_preserves_ratio_fields(self):
        config = CLAMConfig.scaled(num_super_tables=8, buffer_capacity_items=64)
        assert config.num_super_tables == 8
        assert config.buffer_capacity_items == 64
