"""Tests for incarnation placement: the whole-device log, chip partitions,
the interface all five layouts share, and goldens pinning where each one puts
an insert stream."""

import hashlib
from dataclasses import replace

import pytest

from repro.core import (
    CLAM,
    CLAMConfig,
    ConfigurationError,
    DurableCLAM,
    DurableLogStore,
    MultiDeviceLogStore,
    PartitionedChipStore,
    PartitionedDeviceStore,
    WholeDeviceLogStore,
)
from repro.flashsim import INTEL_SSD_PROFILE, SSD, FlashChip, PersistentFlashDevice, SimulationClock
from repro.flashsim.device import DeviceGeometry, IOKind
from repro.flashsim.flash_chip import FlashChipProfile, GENERIC_FLASH_CHIP_PROFILE


def _pages(count, fill=b"x"):
    return [fill * 8 for _ in range(count)]


class TestWholeDeviceLogStore:
    def test_write_and_read_back(self, intel_ssd):
        store = WholeDeviceLogStore(intel_ssd)
        address, latency = store.write_incarnation(0, [b"page-0", b"page-1"])
        assert latency > 0
        assert store.read_incarnation(address, 2)[0] == [b"page-0", b"page-1"]

    def test_incarnations_append_sequentially(self, intel_ssd):
        store = WholeDeviceLogStore(intel_ssd)
        first, _ = store.write_incarnation(0, _pages(4))
        second, _ = store.write_incarnation(0, _pages(4))
        assert second == first + 4

    def test_read_incarnation_returns_all_pages(self, intel_ssd):
        store = WholeDeviceLogStore(intel_ssd)
        address, _ = store.write_incarnation(0, [b"a", b"b", b"c"])
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
            address, _ = store.write_incarnation(0, _pages(incarnation_pages))
            live.append((address, incarnation_pages))
        assert store.wrap_count >= 1

    def test_exhaustion_without_release_raises(self, small_ssd):
        store = WholeDeviceLogStore(small_ssd)
        incarnation_pages = store.capacity_pages // 4
        for _ in range(4):
            store.write_incarnation(0, _pages(incarnation_pages))
        with pytest.raises(ConfigurationError):
            store.write_incarnation(0, _pages(incarnation_pages))

    def test_oversized_incarnation_rejected(self, intel_ssd):
        store = WholeDeviceLogStore(intel_ssd)
        with pytest.raises(ConfigurationError):
            store.write_incarnation(0, _pages(store.capacity_pages + 1))

    def test_empty_incarnation_rejected(self, intel_ssd):
        store = WholeDeviceLogStore(intel_ssd)
        with pytest.raises(ValueError):
            store.write_incarnation(0, [])


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
        address, latency = store.write_incarnation(0, [b"a", b"b"])
        assert latency > 0
        assert store.read_incarnation(address, 2)[0] == [b"a", b"b"]

    def test_partition_wraps_with_erase(self):
        store = PartitionedChipStore(_small_chip(), num_partitions=4, pages_per_incarnation=4)
        addresses = [
            store.write_incarnation(0, _pages(4))[0] for _ in range(store.slots_per_partition * 2)
        ]
        # After wrapping, addresses repeat within the owner's partition.
        assert addresses[0] == addresses[store.slots_per_partition]

    def test_owners_do_not_overlap(self):
        store = PartitionedChipStore(_small_chip(), num_partitions=2, pages_per_incarnation=4)
        address_a, _ = store.write_incarnation(0, [b"owner-a"])
        address_b, _ = store.write_incarnation(1, [b"owner-b"])
        assert store.read_incarnation(address_a, 1)[0] == [b"owner-a"]
        assert store.read_incarnation(address_b, 1)[0] == [b"owner-b"]

    def test_too_many_owners_rejected(self):
        store = PartitionedChipStore(_small_chip(), num_partitions=2, pages_per_incarnation=4)
        store.partition_for_owner(0)
        store.partition_for_owner(1)
        with pytest.raises(ConfigurationError):
            store.partition_for_owner(2)

    def test_oversized_incarnation_rejected(self):
        store = PartitionedChipStore(_small_chip(), num_partitions=4, pages_per_incarnation=4)
        with pytest.raises(ConfigurationError):
            store.write_incarnation(0, _pages(8))

    def test_partition_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitionedChipStore(_small_chip(), num_partitions=64, pages_per_incarnation=4)

    def test_slot_ring_golden(self):
        """Addresses, latencies and erases of three owners wrapping their rings."""
        chip = _small_chip()
        store = PartitionedChipStore(chip, num_partitions=4, pages_per_incarnation=4)
        writes = [
            store.write_incarnation((2, 0, 3)[i % 3], [b"p%d" % i] * (1 + i % 4))
            for i in range(60)
        ]
        assert hashlib.sha1(repr(writes).encode()).hexdigest()[:16] == "2a41cecca7fee7d2"
        assert sum(address for address, _latency in writes) == 2664
        assert chip.clock.now_ms == 73.59887695312506
        assert chip.stats.count(IOKind.ERASE) == 36
        assert chip.stats.count(IOKind.WRITE) == 60


def _tiny_ssd(clock):
    geometry = DeviceGeometry(page_size=512, pages_per_block=64, num_blocks=64)
    return SSD(profile=replace(INTEL_SSD_PROFILE, geometry=geometry), clock=clock)


@pytest.fixture(params=["whole-device", "per-partition-ssd", "multi-device", "chip", "durable"])
def layout_store(request, tmp_path):
    """Each of the five layouts on a small device, with a page count too large for it."""
    clock = SimulationClock()
    if request.param == "whole-device":
        store = WholeDeviceLogStore(_tiny_ssd(clock))
        yield store, store.capacity_pages + 1
    elif request.param == "per-partition-ssd":
        yield PartitionedDeviceStore(_tiny_ssd(clock), 4, 4), 5
    elif request.param == "multi-device":
        devices = [_tiny_ssd(clock), _tiny_ssd(clock)]
        yield MultiDeviceLogStore(devices), devices[0].geometry.total_pages + 1
    elif request.param == "chip":
        yield PartitionedChipStore(_small_chip(), num_partitions=4, pages_per_incarnation=4), 5
    else:
        geometry = DeviceGeometry(page_size=256, pages_per_block=4, num_blocks=32)
        with PersistentFlashDevice(tmp_path / "layout.flash", geometry=geometry) as device:
            store = DurableLogStore(device)
            yield store, store.capacity_pages  # the record header takes one more


def test_every_layout_honours_the_store_interface(layout_store):
    store, oversize = layout_store
    first = [b"owner-0 page %d" % i for i in range(3)]
    second = [b"owner-1 page %d" % i for i in range(3)]
    first_address, latency = store.write_incarnation(0, first)
    second_address, _latency = store.write_incarnation(1, second)
    assert latency > 0
    # Two owners never alias: each incarnation reads back whole after both
    # writes, page by page from the device its owner's lookups read.
    for owner, address, pages in ((0, first_address, first), (1, second_address, second)):
        device, base = store.page_device(owner)
        assert [device.read_page(address - base + offset)[0] for offset in range(3)] == pages
        assert store.read_incarnation(address, 3)[0] == pages
    with pytest.raises(ConfigurationError):
        store.write_incarnation(0, [b"x"] * oversize)


# layout -> (sha1 of the handle list, address sum, final clock, device writes, erases),
# recorded before the five stores were put behind one write method.
PLACEMENT_GOLDENS = {
    "per-partition-ssd": ("1cd109646362d9f6", 12584224, "52.86285714285786", 276, 0),
    "intel-ssd": ("4a0a63a512a44077", 4008, "22.785223214286134", 92, 0),
    "two-intel-ssds": ("0a3fafe8700300c3", 16779208, "22.785223214286134", 92, 0),
    "flash-chip": ("01784c54b8837e68", 1593856, "1469.4000000000208", 92, 0),
    # The only layout that erases eagerly on release.
    "durable": ("d0da674a746da02c", 36480, "82.21914062499636", 93, 2),
}


@pytest.mark.parametrize("layout", sorted(PLACEMENT_GOLDENS))
def test_placement_golden(layout, tmp_path):
    """Every address, latency and erase of a 3,000-insert stream, per layout."""
    config = CLAMConfig.scaled(
        num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
    )
    if layout == "per-partition-ssd":
        ssd = SSD(clock=SimulationClock())
        slot_pages = 2 * config.pages_per_incarnation(ssd.geometry.page_size)
        store = PartitionedDeviceStore(ssd, config.num_super_tables, slot_pages)
        index = CLAM(config, storage=ssd, store=store)
    elif layout == "durable":
        index = DurableCLAM(tmp_path / "golden.clam", config)
    elif layout == "two-intel-ssds":
        index = CLAM(config, storage=["intel-ssd", "intel-ssd"])
    else:
        index = CLAM(config, storage=layout)
    try:
        for i in range(3_000):
            key = b"placement-%d" % i
            index.insert(key, b"v" + key)
        handles = [
            (table.table_id, handle.address, handle.num_pages)
            for table in index.tables
            for handle in table.incarnation_handles
        ]
        assert (
            hashlib.sha1(repr(handles).encode()).hexdigest()[:16],
            sum(address for _table, address, _pages in handles),
            repr(index.clock.now_ms),
            sum(device.stats.count(IOKind.WRITE) for device in index.devices),
            sum(device.stats.count(IOKind.ERASE) for device in index.devices),
        ) == PLACEMENT_GOLDENS[layout]
    finally:
        if layout == "durable":
            index.close()
