"""Tests for the CLAM facade (device selection, stats, ablation modes)."""

import pytest

from repro.baselines import DRAMHashIndex
from repro.core import CLAM, CLAMConfig, ConfigurationError, build_device
from repro.flashsim import DRAMDevice, FlashChip, MagneticDisk, SSD, SimulationClock


class TestBuildDevice:
    @pytest.mark.parametrize(
        "name,expected_type",
        [
            ("intel-ssd", SSD),
            ("transcend-ssd", SSD),
            ("disk", MagneticDisk),
            ("flash-chip", FlashChip),
            ("dram", DRAMDevice),
        ],
    )
    def test_profiles(self, name, expected_type):
        device = build_device(name)
        assert isinstance(device, expected_type)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            build_device("floppy-disk")

    def test_intel_and_transcend_use_different_profiles(self):
        assert build_device("intel-ssd").profile.name != build_device("transcend-ssd").profile.name


class TestCLAMBasics:
    def test_insert_lookup_delete(self, small_clam):
        small_clam.insert(b"key", b"value")
        assert small_clam.get(b"key") == b"value"
        assert b"key" in small_clam
        small_clam.delete(b"key")
        assert small_clam.get(b"key") is None

    def test_accepts_device_instance(self, small_config):
        clock = SimulationClock()
        device = SSD(clock=clock)
        clam = CLAM(small_config, storage=device)
        clam.insert(b"key", b"value")
        assert clam.get(b"key") == b"value"
        assert clam.device is device

    def test_stats_recorded(self, small_clam):
        for i in range(50):
            small_clam.insert(b"key-%d" % i, b"v")
        for i in range(50):
            small_clam.lookup(b"key-%d" % i)
        small_clam.lookup(b"missing")
        assert small_clam.stats.inserts == 50
        assert small_clam.stats.lookups == 51
        assert small_clam.stats.lookup_hits == 50
        assert 0 < small_clam.stats.mean_insert_latency_ms < 1.0
        assert small_clam.stats.mean_lookup_latency_ms > 0

    def test_describe_contains_key_metrics(self, small_clam):
        small_clam.insert(b"key", b"value")
        small_clam.lookup(b"key")
        summary = small_clam.describe()
        for field in ("lookups", "inserts", "mean_lookup_ms", "mean_insert_ms", "flushes"):
            assert field in summary

    def test_throughput_positive_after_operations(self, small_clam):
        for i in range(100):
            small_clam.insert(b"key-%d" % i, b"v")
        assert small_clam.throughput_ops_per_second() > 0


def _ssd():
    return SSD(clock=SimulationClock())


class TestDeviceResolution:
    """One clock for every device: the explicit one, else the first device
    object's, else a new one; named devices are built on it."""

    @pytest.mark.parametrize(
        "storage, clock, message",
        [
            (lambda: [], None, "must not be empty"),
            (lambda: (), None, "must not be empty"),
            (lambda: _ssd(), SimulationClock, "share one clock"),
            (lambda: [_ssd()], SimulationClock, "share one clock"),
            (lambda: [_ssd(), _ssd()], None, "share one clock"),
            (lambda: ["intel-ssd", _ssd(), _ssd()], None, "share one clock"),
            (lambda: ["intel-ssd", _ssd()], SimulationClock, "share one clock"),
        ],
        ids=[
            "empty-list",
            "empty-tuple",
            "explicit-clock-not-the-devices",
            "explicit-clock-not-the-listed-devices",
            "two-devices-two-clocks",
            "named-then-two-clocks",
            "named-then-device-explicit-clock",
        ],
    )
    def test_refused(self, small_config, storage, clock, message):
        with pytest.raises(ConfigurationError, match=message):
            CLAM(small_config, storage=storage(), clock=clock() if clock else None)

    @pytest.mark.parametrize("named_first", [False, True], ids=["device-first", "named-first"])
    def test_a_device_list_shares_one_clock_in_either_order(self, small_config, named_first):
        ssd = _ssd()
        clam = CLAM(small_config, storage=["intel-ssd", ssd] if named_first else [ssd, "intel-ssd"])
        assert clam.clock is ssd.clock
        assert len(clam.devices) == 2 and ssd in clam.devices
        assert all(device.clock is ssd.clock for device in clam.devices)

    def test_named_devices_are_built_on_the_explicit_clock(self, small_config):
        clock = SimulationClock()
        clam = CLAM(small_config, storage=["intel-ssd", "transcend-ssd"], clock=clock)
        assert clam.clock is clock
        assert all(device.clock is clock for device in clam.devices)


class TestCLAMOnDifferentMedia:
    def test_clam_on_ssd_faster_than_on_disk(self, small_config):
        workload = [(b"key-%d" % i, b"value") for i in range(1500)]

        ssd_clam = CLAM(small_config, storage="intel-ssd")
        disk_clam = CLAM(small_config, storage="disk")
        for key, value in workload:
            ssd_clam.insert(key, value)
            disk_clam.insert(key, value)
        for key, _ in workload[::3]:
            ssd_clam.lookup(key)
            disk_clam.lookup(key)
        assert (
            ssd_clam.stats.mean_lookup_latency_ms < disk_clam.stats.mean_lookup_latency_ms
        )

    def test_intel_faster_than_transcend(self, small_config):
        intel = CLAM(small_config, storage="intel-ssd")
        transcend = CLAM(small_config, storage="transcend-ssd")
        for i in range(1500):
            intel.insert(b"key-%d" % i, b"v")
            transcend.insert(b"key-%d" % i, b"v")
        for i in range(0, 1500, 3):
            intel.lookup(b"key-%d" % i)
            transcend.lookup(b"key-%d" % i)
        assert intel.stats.mean_lookup_latency_ms <= transcend.stats.mean_lookup_latency_ms


class TestAblationModes:
    def test_unbuffered_mode_still_correct(self):
        config = CLAMConfig.scaled(use_buffering=False)
        clam = CLAM(config, storage="intel-ssd")
        clam.insert(b"key", b"value")
        assert clam.get(b"key") == b"value"
        clam.delete(b"key")
        assert clam.get(b"key") is None
        # No super tables, so no super-table counters beside the per-operation ones.
        assert not {"flushes", "evictions", "incarnations"} & set(clam.describe())
        assert "incarnations" not in clam.counters()
        assert clam.counters()["flushes"] == 0.0

    def test_unbuffered_bloom_filter_short_circuits_misses(self):
        with_filter = CLAM(CLAMConfig.scaled(use_buffering=False), storage="intel-ssd")
        without_filter = CLAM(
            CLAMConfig.scaled(use_buffering=False, use_bloom_filters=False), storage="intel-ssd"
        )
        with_filter.insert(b"key", b"v")
        without_filter.insert(b"key", b"v")
        assert with_filter.lookup(b"absent").flash_reads == 0
        assert without_filter.lookup(b"absent").flash_reads == 1

    def test_dram_index_inserts_much_faster_than_unbuffered(self):
        dram = DRAMHashIndex()
        flash = CLAM(CLAMConfig.scaled(use_buffering=False), storage="intel-ssd")
        assert dram.insert(b"key", b"v").latency_ms * 10 < flash.insert(b"key", b"v").latency_ms

    def test_unbuffered_inserts_much_slower_under_load(self, small_config):
        """The §7.3.1 buffering ablation: without buffering every insert is a
        random flash write and the SSD degrades."""
        buffered = CLAM(small_config, storage="intel-ssd")
        unbuffered = CLAM(small_config.with_overrides(use_buffering=False), storage="intel-ssd")
        for i in range(3000):
            buffered.insert(b"key-%d" % i, b"v")
            unbuffered.insert(b"key-%d" % i, b"v")
        assert (
            unbuffered.stats.mean_insert_latency_ms
            > 10 * buffered.stats.mean_insert_latency_ms
        )

    def test_no_bloom_filter_mode_reads_more(self, small_config):
        with_bloom = CLAM(small_config, storage="intel-ssd")
        without_bloom = CLAM(
            small_config.with_overrides(use_bloom_filters=False), storage="intel-ssd"
        )
        for i in range(600):
            with_bloom.insert(b"key-%d" % i, b"v")
            without_bloom.insert(b"key-%d" % i, b"v")
        for i in range(300):
            with_bloom.lookup(b"absent-%d" % i)
            without_bloom.lookup(b"absent-%d" % i)
        assert without_bloom.stats.flash_reads > with_bloom.stats.flash_reads
        assert (
            without_bloom.stats.mean_lookup_latency_ms
            > with_bloom.stats.mean_lookup_latency_ms
        )
