"""Tests for distributing super tables across multiple SSDs (§5.2)."""

import pytest

from repro.core import CLAM, CLAMConfig, ConfigurationError, MultiDeviceLogStore
from repro.flashsim import SSD, SimulationClock, TRANSCEND_SSD_PROFILE


def _two_ssds(clock=None):
    clock = clock if clock is not None else SimulationClock()
    return [SSD(clock=clock, name="ssd-0"), SSD(clock=clock, name="ssd-1")], clock


class TestMultiDeviceLogStore:
    def test_round_trip_across_devices(self):
        devices, _clock = _two_ssds()
        store = MultiDeviceLogStore(devices)
        address_a, _ = store.write_incarnation(0, [b"on-device-0"])
        address_b, _ = store.write_incarnation(1, [b"on-device-1"])
        written = ((0, address_a, b"on-device-0"), (1, address_b, b"on-device-1"))
        for owner, address, image in written:
            device, base = store.page_device(owner)
            assert device is devices[owner]
            assert device.read_page(address - base)[0] == image

    def test_owners_map_to_distinct_devices(self):
        devices, _clock = _two_ssds()
        store = MultiDeviceLogStore(devices)
        store.write_incarnation(0, [b"a"])
        store.write_incarnation(1, [b"b"])
        # Each device received exactly one incarnation write.
        assert devices[0].stats.count() > 0
        assert devices[1].stats.count() > 0

    def test_release_and_reuse(self):
        devices, _clock = _two_ssds()
        store = MultiDeviceLogStore(devices)
        address, _ = store.write_incarnation(0, [b"x", b"y"])
        store.release(address, 2)
        # Releasing must not break subsequent writes or reads on that device.
        new_address, _ = store.write_incarnation(0, [b"z"])
        assert store.read_incarnation(new_address, 1)[0] == [b"z"]

    def test_requires_shared_clock(self):
        ssd_a = SSD(clock=SimulationClock())
        ssd_b = SSD(clock=SimulationClock())
        with pytest.raises(ConfigurationError):
            MultiDeviceLogStore([ssd_a, ssd_b])

    def test_requires_at_least_one_device(self):
        with pytest.raises(ConfigurationError):
            MultiDeviceLogStore([])


class TestCLAMOnMultipleSSDs:
    def test_correctness_with_two_ssds(self):
        config = CLAMConfig.scaled(
            num_super_tables=8, buffer_capacity_items=32, incarnations_per_table=4
        )
        clam = CLAM(config, storage=["intel-ssd", "intel-ssd"])
        keys = [b"multi-%d" % i for i in range(1_500)]
        for key in keys:
            clam.insert(key, b"v" + key)
        guaranteed = config.num_super_tables * config.buffer_capacity_items
        assert all(clam.lookup(key).found for key in keys[-guaranteed:])

    def test_both_devices_receive_io(self):
        config = CLAMConfig.scaled(
            num_super_tables=8, buffer_capacity_items=32, incarnations_per_table=4
        )
        clock = SimulationClock()
        devices = [
            SSD(profile=TRANSCEND_SSD_PROFILE, clock=clock, name="left"),
            SSD(profile=TRANSCEND_SSD_PROFILE, clock=clock, name="right"),
        ]
        clam = CLAM(config, storage=devices)
        for i in range(2_000):
            clam.insert(b"spread-%d" % i, b"v")
        assert devices[0].stats.count() > 0
        assert devices[1].stats.count() > 0

    def test_capacity_scales_with_device_count(self):
        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=None
        )
        single = CLAM(config, storage=["intel-ssd"])
        double = CLAM(config, storage=["intel-ssd", "intel-ssd"])
        assert double.incarnations_per_table >= 2 * single.incarnations_per_table
