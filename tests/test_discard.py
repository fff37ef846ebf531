"""Released flash pages are dropped: ``StorageDevice.discard`` (TRIM) and the
stores that call it when they give space back.

A discarded page reads back as the erased image ``b""`` and the discard costs
nothing: no simulated time, no I/O statistics, no fault-gate draw and no
power-cut unit, so every drill fires at the I/O it fired at before.  The
regression test at the end holds a long-running CLAM's simulated media to
what its live incarnations own.
"""

import gc
import random
import tracemalloc
from dataclasses import replace

import pytest

from benchmarks.bench_hotpath import traced_per_indexed_key, turn_windows
from repro.core import (
    CLAM,
    CLAMConfig,
    ConfigurationError,
    MultiDeviceLogStore,
    WholeDeviceLogStore,
)
from repro.core.errors import DeviceFailedError, PowerLossError
from repro.core.hashing import clear_digest_cache
from repro.flashsim import INTEL_SSD_PROFILE, SSD, PersistentFlashDevice, SimulationClock
from repro.flashsim.device import DeviceGeometry, OverwritingPageLog
from repro.flashsim.stats import IOKind
from repro.wanopt.cache import ContentCache


def _ssd(clock=None, num_blocks=8):
    geometry = DeviceGeometry(page_size=512, pages_per_block=8, num_blocks=num_blocks)
    return SSD(profile=replace(INTEL_SSD_PROFILE, geometry=geometry), clock=clock)


def _images(tag, count):
    return [b"%s-page-%d" % (tag, offset) for offset in range(count)]


class TestDeviceDiscard:
    def test_discarded_pages_read_back_erased(self):
        device = _ssd()
        device.write_range(0, _images(b"a", 6))
        device.discard(1, 3)
        pages, _latency = device.read_range(0, 6)
        assert pages == [b"a-page-0", b"", b"", b"", b"a-page-4", b"a-page-5"]
        assert device.read_page(2)[0] == b""
        # A discarded page takes new data like any erased one.
        device.write_page(2, b"new")
        assert device.read_page(2)[0] == b"new"

    def test_a_footprint_write_drops_the_payloads_it_lands_on(self):
        device = _ssd()
        device.write_range(0, _images(b"a", 6))
        device.write_range(2, [b""] * 2)  # the range walk: fewer pages than payloads
        pages, _latency = device.read_range(0, 6)
        assert pages == [b"a-page-0", b"a-page-1", b"", b"", b"a-page-4", b"a-page-5"]
        total = device.geometry.total_pages
        device.write_range(0, [b""] * total)  # the payload walk: fewer payloads than pages
        assert device.read_range(0, total)[0] == [b""] * total
        # It is charged as the write it is.
        assert device.stats.count(IOKind.WRITE) == 3
        assert device.stats.bytes_moved(IOKind.WRITE) == (6 + 2 + total) * 512

    def test_discard_is_bounds_checked(self):
        device = _ssd()
        with pytest.raises(IndexError):
            device.discard(device.geometry.total_pages - 1, 2)
        with pytest.raises(ValueError):
            device.discard(0, 0)

    @staticmethod
    def _script(device, discard):
        """A fixed I/O script; with ``discard`` every written region is also trimmed."""
        for step in range(12):
            start = (step * 5) % 48
            device.write_range(start, _images(b"s%d" % step, 4))
            if discard:
                device.discard(start, 4)
            device.read_page((start + 7) % 64)
            device.read_range(start, 2)

    def test_discard_charges_no_time_and_no_statistics(self):
        plain, trimmed = _ssd(SimulationClock()), _ssd(SimulationClock())
        self._script(plain, discard=False)
        self._script(trimmed, discard=True)
        assert trimmed.clock.now_ms == plain.clock.now_ms
        assert trimmed.stats.totals == plain.stats.totals

    def test_discard_consumes_no_power_cut_unit(self):
        for units in (3, 17, 40):
            fired = []
            for discard in (False, True):
                device = _ssd(SimulationClock())
                device.faults.crash_after_n_ios(units)
                with pytest.raises(PowerLossError):
                    self._script(device, discard)
                fired.append((device.clock.now_ms, device.stats.totals))
            assert fired[0] == fired[1], units

    def test_discard_bypasses_the_fault_gate(self):
        outcomes = []
        for discard in (False, True):
            device = _ssd(SimulationClock())
            device.faults.inject_errors(0.3, seed=7)
            failed = []
            for page in range(40):
                if discard:
                    device.discard(page, 1)
                try:
                    device.write_page(page, b"x")
                except DeviceFailedError:
                    failed.append(page)
            outcomes.append(failed)
        # The seeded error stream is drawn by I/Os only: the same writes fail.
        assert outcomes[0] == outcomes[1] and outcomes[0]
        device.fail()
        device.discard(0, 8)  # a dead device still forgets its payloads
        assert device.faults.faulted_ios == len(outcomes[1])


class TestPersistentDiscard:
    def test_read_and_peek_decode_the_media_again(self, tmp_path):
        geometry = DeviceGeometry(page_size=256, pages_per_block=4, num_blocks=16)
        path = tmp_path / "trim.flash"
        with PersistentFlashDevice(path, geometry=geometry) as device:
            device.write_range(8, _images(b"p", 4))
            assert device.peek_page(9) == b"p-page-1"  # state VALID cached
            device.discard(8, 4)
            # Only the decoded caches went; the frames are still on the media.
            assert not {8, 9, 10, 11} & (set(device._pages) | set(device._states))
            assert device.peek_page(9) == b"p-page-1"
            assert device.read_page(10)[0] == b"p-page-2"
            device.discard(8, 4)
            assert device.read_range(8, 4)[0] == _images(b"p", 4)
        with PersistentFlashDevice(path) as reopened:
            assert reopened.peek_page(11) == b"p-page-3"


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("layout", ["whole-device", "multi-device"])
def test_released_regions_read_erased_until_reused(layout, seed):
    """Random writes and releases: live regions read their own images,
    released pages read erased until a later region reuses them."""
    rng = random.Random(seed)
    clock = SimulationClock()
    if layout == "whole-device":
        store = WholeDeviceLogStore(_ssd(clock, num_blocks=4))
    else:
        store = MultiDeviceLogStore([_ssd(clock, num_blocks=2), _ssd(clock, num_blocks=3)])
    expected = {}  # store page address -> the image it must read back
    live = []  # (address, number of pages)
    reused = 0
    for step in range(160):
        if live and (rng.random() < 0.45 or len(live) > 8):
            address, count = live.pop(rng.randrange(len(live)))
            store.release(address, count)
            for page in range(address, address + count):
                expected[page] = b""
        else:
            images = _images(b"w%d" % step, rng.randint(1, 6))
            try:
                address, _latency = store.write_incarnation(rng.randrange(4), images)
            except ConfigurationError:
                continue  # no free space on the owner's device this step
            for offset, image in enumerate(images):
                reused += expected.get(address + offset) == b""
                expected[address + offset] = image
            live.append((address, len(images)))
        if step % 8 == 0:
            assert {page: store.read_incarnation(page, 1)[0][0] for page in expected} == expected
    assert {page: store.read_incarnation(page, 1)[0][0] for page in expected} == expected
    assert reused, "no released page was written again: the sequence never wrapped"


class TestOverwritingPageLogForget:
    def test_forgotten_region_reads_erased(self):
        device = _ssd()
        log = OverwritingPageLog(device)
        old, _latency, _evicted = log.append(1200, b"o" * 1200, tag="old")
        new, _latency, _evicted = log.append(700, b"n" * 700, tag="new")
        log.forget(old)
        assert device.read_range(old, 3)[0] == [b"", b"", b""]
        assert log.read(new)[0] == b"n" * 700
        with pytest.raises(KeyError):
            log.read(old)

    def test_a_write_evicts_the_regions_starting_inside_it_in_page_order(self):
        log = OverwritingPageLog(_ssd(num_blocks=1))  # 8 pages
        for tag, pages in (("A", 6), ("B", 2), ("C", 2), ("D", 1)):
            log.append(pages * 512, tag=tag)  # C wraps to page 0 and evicts A
        # Live: B at 6, C at 0, D at 2, listed in that order; a 7-page write
        # from page 0 lands on all three and walks the regions, not the pages.
        address, _latency, evicted = log.append(7 * 512, tag="E")
        assert address == 0 and evicted == ["C", "D", "B"]
        assert log.append(512, tag="F")[2] == []  # page 7, the last free one
        assert log.append(512, tag="G")[2] == ["E"]  # wraps; the page walk

    def test_content_cache_drops_a_superseded_copy(self):
        cache = ContentCache(_ssd())
        first, _latency = cache.store(b"fp", 600, b"c" * 600)
        second, _latency = cache.store(b"fp", 600, b"c" * 600)
        assert second != first
        assert cache.device.read_range(first, 2)[0] == [b"", b""]
        assert cache.read(b"fp")[0] == b"c" * 600


def test_simulated_media_follow_the_live_incarnations():
    """After four FIFO-window laps a CLAM's simulated media per indexed key stay
    within 1.25x of their window-full reading (keeping every page ever written
    made them about five times as large)."""
    clear_digest_cache()
    gc.collect()
    tracemalloc.start()
    try:
        clam = CLAM(
            CLAMConfig.scaled(
                num_super_tables=4, buffer_capacity_items=64, incarnations_per_table=4
            ),
            storage="intel-ssd",
        )
        number = turn_windows(clam, 0)
        window_full = traced_per_indexed_key(clam)["flash_media_bytes"]
        turn_windows(clam, 4, number)
        steady = traced_per_indexed_key(clam)["flash_media_bytes"]
    finally:
        tracemalloc.stop()
    assert steady <= 1.25 * window_full, (window_full, steady)
