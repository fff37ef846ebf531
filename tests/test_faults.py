"""Tests for deterministic device-level fault injection (flashsim.faults)."""

import pytest

from repro.core.clam import CLAM, build_device
from repro.core.config import CLAMConfig
from repro.core.errors import DeviceFailedError
from repro.flashsim import FaultInjector, FaultMode


def make_device(storage="intel-ssd"):
    return build_device(storage)


class TestFaultInjector:
    def test_healthy_is_a_no_op(self):
        injector = FaultInjector()
        assert injector.mode is FaultMode.HEALTHY
        assert injector.check(1.5) == 1.5
        assert injector.faulted_ios == 0

    def test_crash_raises_until_heal(self):
        injector = FaultInjector(device_name="ssd-0")
        injector.crash()
        assert injector.is_crashed
        with pytest.raises(DeviceFailedError, match="ssd-0"):
            injector.check(1.0)
        with pytest.raises(DeviceFailedError):
            injector.check(1.0)
        assert injector.faulted_ios == 2
        injector.heal()
        assert injector.mode is FaultMode.HEALTHY
        assert injector.check(1.0) == 1.0

    def test_io_errors_are_deterministic_under_seed(self):
        def failure_pattern(seed):
            injector = FaultInjector(seed=seed)
            injector.inject_errors(error_rate=0.3)
            pattern = []
            for _ in range(200):
                try:
                    injector.check(1.0)
                    pattern.append(False)
                except DeviceFailedError:
                    pattern.append(True)
            return pattern

        first = failure_pattern(seed=7)
        second = failure_pattern(seed=7)
        other = failure_pattern(seed=8)
        assert first == second
        assert first != other
        assert 20 < sum(first) < 120  # roughly the configured rate

    def test_degraded_inflates_latency_without_failing(self):
        injector = FaultInjector()
        injector.degrade(latency_multiplier=3.0, extra_latency_ms=0.5)
        assert injector.mode is FaultMode.DEGRADED
        assert injector.check(1.0) == pytest.approx(3.5)
        assert injector.degraded_ios == 1
        injector.heal()
        assert injector.check(1.0) == 1.0

    def test_parameter_validation(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.inject_errors(error_rate=0.0)
        with pytest.raises(ValueError):
            injector.inject_errors(error_rate=1.5)
        with pytest.raises(ValueError):
            injector.degrade(latency_multiplier=0.5)
        with pytest.raises(ValueError):
            injector.degrade(extra_latency_ms=-1.0)


class TestDeviceFaults:
    def test_crashed_device_refuses_io_and_freezes_clock(self):
        device = make_device()
        device.write_page(0, b"payload")
        before_ms = device.clock.now_ms
        before_ops = device.stats.count()
        device.fail()
        assert device.faults.is_crashed
        with pytest.raises(DeviceFailedError):
            device.read_page(0)
        with pytest.raises(DeviceFailedError):
            device.write_page(1, b"x")
        with pytest.raises(DeviceFailedError):
            device.read_range(0, 2)
        with pytest.raises(DeviceFailedError):
            device.write_range(0, [b"a", b"b"])
        # A refused I/O advances neither the clock nor the stats.
        assert device.clock.now_ms == before_ms
        assert device.stats.count() == before_ops

    def test_heal_preserves_payloads(self):
        device = make_device()
        device.write_page(3, b"durable")
        device.fail()
        device.heal()
        payload, _latency = device.read_page(3)
        assert payload == b"durable"

    def test_degraded_device_still_serves_but_slower(self):
        healthy = make_device()
        sick = make_device()
        sick.faults.degrade(latency_multiplier=10.0)
        _, fast = healthy.read_page(0)
        _, slow = sick.read_page(0)
        assert slow == pytest.approx(10.0 * fast)
        assert sick.read_page(0)[0] == b""

    @pytest.mark.parametrize("storage", ["intel-ssd", "transcend-ssd", "disk", "dram"])
    def test_every_device_profile_carries_an_injector(self, storage):
        device = make_device(storage)
        device.fail()
        with pytest.raises(DeviceFailedError):
            device.read_page(0)
        device.heal()
        device.read_page(0)


class TestClamFaults:
    def make_clam(self):
        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
        )
        return CLAM(config, storage="intel-ssd")

    def test_crashed_clam_refuses_even_buffer_served_operations(self):
        clam = self.make_clam()
        clam.insert(b"key", b"value")  # sits in the DRAM buffer
        for device in clam.devices:
            device.fail()
        # Without the CLAM-level gate this lookup would be served from DRAM.
        with pytest.raises(DeviceFailedError):
            clam.lookup(b"key")
        with pytest.raises(DeviceFailedError):
            clam.insert(b"other", b"value")
        with pytest.raises(DeviceFailedError):
            clam.delete(b"key")

    def test_healed_clam_serves_again_with_data_intact(self):
        clam = self.make_clam()
        for identifier in range(200):  # enough to flush some data to flash
            clam.insert(b"key-%d" % identifier, b"v")
        for device in clam.devices:
            device.fail()
        with pytest.raises(DeviceFailedError):
            clam.lookup(b"key-0")
        for device in clam.devices:
            device.heal()
        assert all(clam.lookup(b"key-%d" % i).found for i in range(200))
