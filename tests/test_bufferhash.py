"""Tests for the paper's partitioned BufferHash structure, driven through CLAM:
partitioning, the hash-table operations, the FIFO window and its counters, and
how the structure is laid out on a device."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CLAM, CLAMConfig, ConfigurationError, PartitionedChipStore, ServedFrom
from repro.flashsim import FlashChip, SSD, SimulationClock
from repro.flashsim.device import DeviceGeometry
from repro.flashsim.flash_chip import FlashChipProfile, GENERIC_FLASH_CHIP_PROFILE


def _clam(num_super_tables=4, buffer_capacity=16, incarnations=4):
    config = CLAMConfig.scaled(
        num_super_tables=num_super_tables,
        buffer_capacity_items=buffer_capacity,
        incarnations_per_table=incarnations,
    )
    return CLAM(config, storage=SSD(clock=SimulationClock()))


class TestPartitioning:
    def test_keys_spread_across_super_tables(self):
        clam = _clam(num_super_tables=8)
        owners = {clam.table_for(b"key-%d" % i).table_id for i in range(500)}
        assert len(owners) == 8

    def test_same_key_always_same_table(self):
        clam = _clam()
        assert clam.table_for(b"stable").table_id == clam.table_for(b"stable").table_id

    def test_each_table_created(self):
        clam = _clam(num_super_tables=6)
        assert len(clam.tables) == 6


class TestOperations:
    def test_insert_lookup_round_trip(self):
        clam = _clam()
        clam.insert(b"key", b"value")
        assert clam.lookup(b"key").value == b"value"
        assert clam.get(b"key") == b"value"
        assert b"key" in clam

    def test_accepts_string_and_int_keys(self):
        clam = _clam()
        clam.insert("string-key", b"1")
        clam.insert(1234, b"2")
        assert clam.get("string-key") == b"1"
        assert clam.get(1234) == b"2"

    def test_delete(self):
        clam = _clam()
        clam.insert(b"key", b"value")
        clam.delete(b"key")
        assert not clam.lookup(b"key").found

    def test_update_returns_latest(self):
        clam = _clam()
        clam.insert(b"key", b"v1")
        for i in range(100):
            clam.insert(b"filler-%d" % i, b"x")
        clam.update(b"key", b"v2")
        assert clam.get(b"key") == b"v2"

    def test_recent_keys_all_retained(self):
        clam = _clam(num_super_tables=4, buffer_capacity=16, incarnations=4)
        keys = [b"key-%d" % i for i in range(2000)]
        for key in keys:
            clam.insert(key, b"v" + key)
        # The most recent |buffer| keys are guaranteed to be retained.
        recent = 4 * 16
        assert all(clam.lookup(key).found for key in keys[-recent:])

    def test_aggregate_counters(self):
        clam = _clam(buffer_capacity=8)
        for i in range(200):
            clam.insert(b"key-%d" % i, b"v")
        assert clam.total_flushes > 0
        assert clam.total_incarnations > 0
        assert clam.total_evictions >= 0
        assert sum(clam.cascade_histogram().values()) == clam.total_flushes

    def test_snapshot_items_contains_recent_inserts(self):
        clam = _clam()
        clam.insert(b"a", b"1")
        clam.insert(b"b", b"2")
        snapshot = clam.snapshot_items()
        assert snapshot[b"a"] == b"1"
        assert snapshot[b"b"] == b"2"

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=16), st.binary(min_size=1, max_size=8)),
            min_size=1,
            max_size=150,
        )
    )
    def test_property_matches_dict_within_retention(self, pairs):
        """As long as fewer distinct keys than the retention capacity are live,
        the structure behaves exactly like a dict."""
        clam = _clam(num_super_tables=2, buffer_capacity=32, incarnations=8)
        model = {}
        for key, value in pairs:
            clam.insert(key, value)
            model[key] = value
        for key, value in model.items():
            assert clam.get(key) == value


class TestDeviceIntegration:
    def test_runs_on_flash_chip_with_partitioned_store(self):
        profile = FlashChipProfile(
            name="test-chip",
            geometry=DeviceGeometry(page_size=512, pages_per_block=8, num_blocks=256),
            cost_model=GENERIC_FLASH_CHIP_PROFILE.cost_model,
        )
        chip = FlashChip(profile=profile, clock=SimulationClock())
        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=16, incarnations_per_table=2
        )
        clam = CLAM(config, storage=chip)
        # One partition per super table, its slots rounded up to whole blocks.
        store = clam.tables[0].store
        assert isinstance(store, PartitionedChipStore)
        assert all(table.store is store for table in clam.tables)
        assert store.pages_per_incarnation % chip.geometry.pages_per_block == 0
        assert store.pages_per_incarnation >= config.pages_per_incarnation(512)
        keys = [b"chip-key-%d" % i for i in range(200)]
        for key in keys:
            clam.insert(key, b"v" + key)
        recent = 4 * 16
        assert all(clam.lookup(key).found for key in keys[-recent:])

    def test_too_small_device_rejected(self):
        tiny = SSD(clock=SimulationClock())
        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=16, incarnations_per_table=10_000_000
        )
        with pytest.raises(ConfigurationError):
            CLAM(config, storage=tiny)

    def test_incarnations_derived_from_device_when_unspecified(self):
        ssd = SSD(clock=SimulationClock())
        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=16, incarnations_per_table=None
        )
        clam = CLAM(config, storage=ssd)
        pages = config.pages_per_incarnation(ssd.geometry.page_size)
        derived = ssd.geometry.total_pages // pages // 4
        assert clam.incarnations_per_table == derived >= 1
        assert all(table.max_incarnations == derived for table in clam.tables)

    def test_a_derived_window_of_many_columns_inserts_and_looks_up(self):
        """A device-derived ``k`` runs to hundreds of thousands of Bloom
        columns; the slices hold only the columns the ring has reached."""
        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=16, incarnations_per_table=None
        )
        clam = CLAM(config, storage=SSD(clock=SimulationClock()))
        assert clam.incarnations_per_table > 64
        keys = [b"derived-%d" % i for i in range(400)]
        for key in keys:
            clam.insert(key, key[::-1])
        assert clam.total_flushes >= 16 and clam.total_evictions == 0
        for key in keys:
            result = clam.lookup(key)
            assert result.value == key[::-1]
        assert sum(clam.lookup(key).served_from is ServedFrom.INCARNATION for key in keys) > 300
        assert not clam.lookup(b"derived-absent").found
        slabs = [table._sliced for table in clam.tables]
        assert all(len(sliced._slices) == 8 * sliced.num_bits for sliced in slabs)
