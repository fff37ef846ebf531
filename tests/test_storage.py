"""Tests for incarnation placement (whole-device log and chip partitions)."""

import pytest

from repro.core import ConfigurationError, PartitionedChipStore, WholeDeviceLogStore
from repro.flashsim import FlashChip, SimulationClock
from repro.flashsim.device import DeviceGeometry
from repro.flashsim.flash_chip import FlashChipProfile, GENERIC_FLASH_CHIP_PROFILE


def _pages(count, fill=b"x"):
    return [fill * 8 for _ in range(count)]


class TestWholeDeviceLogStore:
    def test_write_and_read_back(self, intel_ssd):
        store = WholeDeviceLogStore(intel_ssd)
        address, latency = store.write_incarnation([b"page-0", b"page-1"])
        assert latency > 0
        assert store.read_page(address, 0)[0] == b"page-0"
        assert store.read_page(address, 1)[0] == b"page-1"

    def test_incarnations_append_sequentially(self, intel_ssd):
        store = WholeDeviceLogStore(intel_ssd)
        first, _ = store.write_incarnation(_pages(4))
        second, _ = store.write_incarnation(_pages(4))
        assert second == first + 4

    def test_read_incarnation_returns_all_pages(self, intel_ssd):
        store = WholeDeviceLogStore(intel_ssd)
        address, _ = store.write_incarnation([b"a", b"b", b"c"])
        pages, _latency = store.read_incarnation(address, 3)
        assert pages == [b"a", b"b", b"c"]

    def test_wraps_and_reuses_released_space(self, small_ssd):
        store = WholeDeviceLogStore(small_ssd)
        incarnation_pages = 64
        capacity = store.capacity_pages // incarnation_pages
        live = []
        # Write more incarnations than fit, releasing the oldest as we go
        # (exactly what BufferHash's eviction does).
        for i in range(capacity * 3):
            if len(live) >= capacity - 1:
                address, pages = live.pop(0)
                store.release(address, pages)
            address, _ = store.write_incarnation(_pages(incarnation_pages))
            live.append((address, incarnation_pages))
        assert store.wrap_count >= 1

    def test_exhaustion_without_release_raises(self, small_ssd):
        store = WholeDeviceLogStore(small_ssd)
        incarnation_pages = store.capacity_pages // 4
        for _ in range(4):
            store.write_incarnation(_pages(incarnation_pages))
        with pytest.raises(ConfigurationError):
            store.write_incarnation(_pages(incarnation_pages))

    def test_oversized_incarnation_rejected(self, intel_ssd):
        store = WholeDeviceLogStore(intel_ssd)
        with pytest.raises(ConfigurationError):
            store.write_incarnation(_pages(store.capacity_pages + 1))

    def test_empty_incarnation_rejected(self, intel_ssd):
        store = WholeDeviceLogStore(intel_ssd)
        with pytest.raises(ValueError):
            store.write_incarnation([])

    def test_invalid_reserve_fraction_rejected(self, intel_ssd):
        with pytest.raises(ValueError):
            WholeDeviceLogStore(intel_ssd, reserve_fraction=1.0)


def _small_chip():
    profile = FlashChipProfile(
        name="tiny-nand",
        geometry=DeviceGeometry(page_size=256, pages_per_block=4, num_blocks=32),
        cost_model=GENERIC_FLASH_CHIP_PROFILE.cost_model,
    )
    return FlashChip(profile=profile, clock=SimulationClock())


class TestPartitionedChipStore:
    def test_each_owner_gets_its_own_partition(self):
        store = PartitionedChipStore(_small_chip(), num_partitions=4, pages_per_incarnation=4)
        first = store.partition_for_owner(0)
        second = store.partition_for_owner(1)
        assert first != second
        assert store.partition_for_owner(0) == first  # stable assignment

    def test_write_and_read_back(self):
        store = PartitionedChipStore(_small_chip(), num_partitions=4, pages_per_incarnation=4)
        address, latency = store.write_incarnation_for(0, [b"a", b"b"])
        assert latency > 0
        assert store.read_page(address, 0)[0] == b"a"
        assert store.read_page(address, 1)[0] == b"b"

    def test_partition_wraps_with_erase(self):
        store = PartitionedChipStore(_small_chip(), num_partitions=4, pages_per_incarnation=4)
        addresses = [store.write_incarnation_for(0, _pages(4))[0] for _ in range(store.slots_per_partition * 2)]
        # After wrapping, addresses repeat within the owner's partition.
        assert addresses[0] == addresses[store.slots_per_partition]

    def test_owners_do_not_overlap(self):
        store = PartitionedChipStore(_small_chip(), num_partitions=2, pages_per_incarnation=4)
        address_a, _ = store.write_incarnation_for(0, [b"owner-a"])
        address_b, _ = store.write_incarnation_for(1, [b"owner-b"])
        assert store.read_page(address_a, 0)[0] == b"owner-a"
        assert store.read_page(address_b, 0)[0] == b"owner-b"

    def test_too_many_owners_rejected(self):
        store = PartitionedChipStore(_small_chip(), num_partitions=2, pages_per_incarnation=4)
        store.partition_for_owner(0)
        store.partition_for_owner(1)
        with pytest.raises(ConfigurationError):
            store.partition_for_owner(2)

    def test_oversized_incarnation_rejected(self):
        store = PartitionedChipStore(_small_chip(), num_partitions=4, pages_per_incarnation=4)
        with pytest.raises(ConfigurationError):
            store.write_incarnation_for(0, _pages(8))

    def test_partition_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitionedChipStore(_small_chip(), num_partitions=64, pages_per_incarnation=4)
