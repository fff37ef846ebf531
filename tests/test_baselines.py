"""Tests for the baseline indexes (BDB-style hash, DRAM hash) and the §7.3.1
unbuffered CLAM, which share their hash-table API."""

import pytest

from repro.baselines import DRAMHashIndex, ExternalHashIndex
from repro.core import CLAM, CLAMConfig
from repro.flashsim import MagneticDisk, SSD, SimulationClock


def _all_baselines():
    return [
        ExternalHashIndex(SSD(clock=SimulationClock())),
        CLAM(CLAMConfig.scaled(use_buffering=False), storage="intel-ssd"),
        DRAMHashIndex(),
    ]


class TestCommonBehaviour:
    @pytest.mark.parametrize("index", _all_baselines(), ids=lambda i: type(i).__name__)
    def test_insert_lookup_round_trip(self, index):
        index.insert(b"key", b"value")
        result = index.lookup(b"key")
        assert result.found
        assert result.value == b"value"

    @pytest.mark.parametrize("index", _all_baselines(), ids=lambda i: type(i).__name__)
    def test_missing_key(self, index):
        assert not index.lookup(b"missing").found

    @pytest.mark.parametrize("index", _all_baselines(), ids=lambda i: type(i).__name__)
    def test_update_overwrites(self, index):
        index.insert(b"key", b"v1")
        index.update(b"key", b"v2")
        assert index.lookup(b"key").value == b"v2"

    @pytest.mark.parametrize("index", _all_baselines(), ids=lambda i: type(i).__name__)
    def test_delete(self, index):
        index.insert(b"key", b"value")
        index.delete(b"key")
        assert not index.lookup(b"key").found

    @pytest.mark.parametrize("index", _all_baselines(), ids=lambda i: type(i).__name__)
    def test_many_keys_round_trip(self, index):
        keys = {b"key-%d" % i: b"value-%d" % i for i in range(300)}
        for key, value in keys.items():
            index.insert(key, value)
        for key, value in keys.items():
            assert index.lookup(key).value == value

    @pytest.mark.parametrize("index", _all_baselines(), ids=lambda i: type(i).__name__)
    def test_stats_recorded(self, index):
        index.insert(b"key", b"value")
        index.lookup(b"key")
        assert index.stats.inserts == 1
        assert index.stats.lookups == 1


class TestExternalHashIndex:
    def test_every_operation_pays_device_io(self):
        ssd = SSD(clock=SimulationClock())
        index = ExternalHashIndex(ssd, cache_pages=0)
        index.insert(b"key", b"value")
        assert index.stats.flash_writes >= 1
        result = index.lookup(b"key")
        assert result.flash_reads >= 1

    def test_cache_absorbs_repeated_reads(self):
        ssd = SSD(clock=SimulationClock())
        index = ExternalHashIndex(ssd, cache_pages=128)
        index.insert(b"key", b"value")
        first = index.lookup(b"key").latency_ms
        second = index.lookup(b"key").latency_ms
        assert second <= first

    def test_on_disk_slower_than_on_ssd(self):
        disk_index = ExternalHashIndex(MagneticDisk(clock=SimulationClock()), cache_pages=0)
        ssd_index = ExternalHashIndex(SSD(clock=SimulationClock()), cache_pages=0)
        disk_latency = disk_index.lookup(b"probe").latency_ms
        ssd_latency = ssd_index.lookup(b"probe").latency_ms
        assert disk_latency > ssd_latency

    def test_disk_latency_matches_paper_magnitude(self):
        """BDB-on-disk operations should be in the multi-millisecond seek range
        (the paper reports ~6.8-7 ms means)."""
        index = ExternalHashIndex(MagneticDisk(clock=SimulationClock()), cache_pages=0)
        for i in range(200):
            index.insert(b"key-%d" % i, b"v")
        for i in range(200):
            index.lookup(b"key-%d" % i)
        assert 3.0 < index.stats.mean_insert_latency_ms < 15.0
        assert 3.0 < index.stats.mean_lookup_latency_ms < 15.0

    def test_sustained_random_writes_degrade_ssd(self):
        """The §7.2.2 effect: a continuous insert stream pushes the SSD into GC
        and per-op latency rises by an order of magnitude."""
        ssd = SSD(clock=SimulationClock())
        index = ExternalHashIndex(ssd, cache_pages=0)
        for i in range(4000):
            index.insert(b"key-%d" % i, b"v")
        assert index.stats.mean_insert_latency_ms > 1.0

    def test_overflow_chains_keep_data(self):
        ssd = SSD(clock=SimulationClock())
        index = ExternalHashIndex(ssd, num_buckets=16, entries_per_page=4)
        keys = {b"key-%d" % i: b"v%d" % i for i in range(300)}
        for key, value in keys.items():
            index.insert(key, value)
        for key, value in keys.items():
            assert index.lookup(key).value == value

    def test_in_memory_filter_suppresses_miss_reads(self):
        ssd = SSD(clock=SimulationClock())
        index = ExternalHashIndex(ssd, in_memory_filter=True)
        index.insert(b"present", b"v")
        miss = index.lookup(b"absent")
        assert miss.flash_reads == 0

    def test_items_returns_all(self):
        index = ExternalHashIndex(SSD(clock=SimulationClock()))
        index.insert(b"a", b"1")
        index.insert(b"b", b"2")
        assert index.items() == {b"a": b"1", b"b": b"2"}


class TestDRAMHashIndex:
    def test_operations_are_fast(self):
        index = DRAMHashIndex()
        index.insert(b"key", b"value")
        result = index.lookup(b"key")
        assert result.latency_ms < 0.05
