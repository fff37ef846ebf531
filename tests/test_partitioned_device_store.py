"""Tests for the per-partition SSD layout (the §5.2 ablation store)."""

import pytest

from repro.core import CLAM, CLAMConfig, ConfigurationError, PartitionedDeviceStore
from repro.flashsim import SSD, SimulationClock


def _store(num_partitions=4, pages_per_incarnation=8):
    ssd = SSD(clock=SimulationClock())
    return PartitionedDeviceStore(ssd, num_partitions, pages_per_incarnation), ssd


class TestPartitionedDeviceStore:
    def test_round_trip(self):
        store, _ssd = _store()
        address, latency = store.write_incarnation(0, [b"a", b"b"])
        assert latency > 0
        pages, _lat = store.read_incarnation(address, 2)
        assert pages == [b"a", b"b"]

    def test_partitions_do_not_overlap(self):
        store, _ssd = _store()
        address_a, _ = store.write_incarnation(0, [b"from-0"])
        address_b, _ = store.write_incarnation(1, [b"from-1"])
        assert abs(address_a - address_b) >= store.partition_pages
        assert store.read_incarnation(address_a, 1)[0] == [b"from-0"]
        assert store.read_incarnation(address_b, 1)[0] == [b"from-1"]

    def test_slots_wrap_within_partition(self):
        store, _ssd = _store(num_partitions=4, pages_per_incarnation=8)
        addresses = [
            store.write_incarnation(0, [b"x"])[0] for _ in range(store.slots_per_partition + 1)
        ]
        assert addresses[0] == addresses[-1]
        assert all(addr < store.partition_pages for addr in addresses)

    def test_oversized_incarnation_rejected(self):
        store, _ssd = _store(pages_per_incarnation=2)
        with pytest.raises(ConfigurationError):
            store.write_incarnation(0, [b"a", b"b", b"c"])

    def test_too_many_owners_rejected(self):
        store, _ssd = _store(num_partitions=2)
        store.write_incarnation(0, [b"a"])
        store.write_incarnation(1, [b"b"])
        with pytest.raises(ConfigurationError):
            store.write_incarnation(2, [b"c"])

    def test_invalid_construction(self):
        ssd = SSD(clock=SimulationClock())
        with pytest.raises(ValueError):
            PartitionedDeviceStore(ssd, 0, 8)
        with pytest.raises(ConfigurationError):
            PartitionedDeviceStore(ssd, 1, ssd.geometry.total_pages + 1)

    def test_clam_correct_on_partitioned_layout(self):
        """The layout is slower but must remain functionally correct."""
        ssd = SSD(clock=SimulationClock())
        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
        )
        store = PartitionedDeviceStore(
            ssd,
            num_partitions=config.num_super_tables,
            pages_per_incarnation=config.pages_per_incarnation(ssd.geometry.page_size) * 2,
        )
        clam = CLAM(config, storage=ssd, store=store)
        assert all(table.store is store for table in clam.tables)
        keys = [b"pk-%d" % i for i in range(1_000)]
        for key in keys:
            clam.insert(key, b"v" + key)
        guaranteed = config.num_super_tables * config.buffer_capacity_items
        assert all(clam.lookup(key).found for key in keys[-guaranteed:])

    def test_whole_log_cheaper_than_partitioned_on_ssd(self):
        """The §5.2 claim the ablation benchmark quantifies."""
        config = CLAMConfig.scaled(
            num_super_tables=8, buffer_capacity_items=64, incarnations_per_table=4
        )

        def mean_insert(use_partitioned):
            ssd = SSD(clock=SimulationClock())
            store = None
            if use_partitioned:
                store = PartitionedDeviceStore(
                    ssd,
                    num_partitions=config.num_super_tables,
                    pages_per_incarnation=config.pages_per_incarnation(ssd.geometry.page_size) * 2,
                )
            clam = CLAM(config, storage=ssd, store=store)
            total = 0.0
            count = 5_000
            for i in range(count):
                total += clam.insert(b"cmp-%d" % i, b"v").latency_ms
            return total / count

        assert mean_insert(use_partitioned=False) < mean_insert(use_partitioned=True)
