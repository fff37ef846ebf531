"""Tests for device geometry and the shared StorageDevice behaviour."""

import pytest

from repro.flashsim import DeviceGeometry, IOKind, SSD, SimulationClock


class TestDeviceGeometry:
    def test_derived_sizes(self):
        geometry = DeviceGeometry(page_size=512, pages_per_block=4, num_blocks=10)
        assert geometry.block_size == 2048
        assert geometry.total_pages == 40
        assert geometry.capacity_bytes == 512 * 40

    @pytest.mark.parametrize("field", ["page_size", "pages_per_block", "num_blocks"])
    def test_non_positive_rejected(self, field):
        kwargs = {"page_size": 512, "pages_per_block": 4, "num_blocks": 10}
        kwargs[field] = 0
        with pytest.raises(ValueError):
            DeviceGeometry(**kwargs)


class TestStorageDeviceBehaviour:
    def test_write_then_read_round_trip(self, intel_ssd):
        intel_ssd.write_page(3, b"payload")
        data, _latency = intel_ssd.read_page(3)
        assert data == b"payload"

    def test_unwritten_page_reads_empty(self, intel_ssd):
        data, _latency = intel_ssd.read_page(5)
        assert data == b""

    def test_out_of_range_page_rejected(self, intel_ssd):
        with pytest.raises(IndexError):
            intel_ssd.read_page(intel_ssd.geometry.total_pages)
        with pytest.raises(IndexError):
            intel_ssd.write_page(-1, b"")

    def test_oversized_payload_rejected(self, intel_ssd):
        too_big = b"x" * (intel_ssd.geometry.page_size + 1)
        with pytest.raises(ValueError):
            intel_ssd.write_page(0, too_big)

    def test_io_advances_clock(self, intel_ssd, clock):
        before = clock.now_ms
        intel_ssd.write_page(0, b"a")
        assert clock.now_ms > before

    def test_io_recorded_in_stats(self, intel_ssd):
        intel_ssd.write_page(0, b"a")
        intel_ssd.read_page(0)
        assert intel_ssd.stats.count(IOKind.WRITE) == 1
        assert intel_ssd.stats.count(IOKind.READ) == 1

    def test_write_range_round_trip(self, intel_ssd):
        pages = [b"one", b"two", b"three"]
        intel_ssd.write_range(10, pages)
        data, _latency = intel_ssd.read_range(10, 3)
        assert data == pages

    def test_write_range_empty_rejected(self, intel_ssd):
        with pytest.raises(ValueError):
            intel_ssd.write_range(0, [])

    def test_read_range_bounds_checked(self, intel_ssd):
        with pytest.raises(IndexError):
            intel_ssd.read_range(intel_ssd.geometry.total_pages - 1, 2)

    def test_range_write_cheaper_than_individual_writes(self):
        """Streaming a batch must cost less than writing each page alone (P3)."""
        clock_a, clock_b = SimulationClock(), SimulationClock()
        ssd_a, ssd_b = SSD(clock=clock_a), SSD(clock=clock_b)
        pages = [b"x" * 512 for _ in range(32)]
        batched = ssd_a.write_range(0, pages)
        individual = sum(ssd_b.write_page(100 + 2 * i, p) for i, p in enumerate(pages))
        assert batched < individual

    def test_a_read_latency_that_is_not_finite_is_refused_before_it_is_charged(self):
        class BrokenSSD(SSD):
            def _read_latency(self, nbytes, sequential):
                return float("nan")

        device = BrokenSSD(clock=SimulationClock())
        with pytest.raises(ValueError, match="not finite"):
            device.read_page(0)
        assert device.clock.now_ms == 0.0
        assert device.stats.count(IOKind.READ) == 0

    def test_sequential_reads_detected(self, intel_ssd):
        intel_ssd.write_range(0, [b"a", b"b", b"c"])
        intel_ssd.read_page(0)
        _data, latency_seq = intel_ssd.read_page(1)
        # A random far-away read has the full fixed cost.
        _data, latency_rand = intel_ssd.read_page(500)
        assert latency_seq < latency_rand
