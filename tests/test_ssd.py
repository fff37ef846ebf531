"""Tests for the SSD model, including its garbage-collection dynamics.

The GC behaviour is what drives the paper's key comparison (§7.2.2): small
random writes degrade the whole device, while BufferHash's occasional large
sequential flushes leave it healthy.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flashsim import (
    SSD,
    SimulationClock,
    INTEL_SSD_PROFILE,
    TRANSCEND_SSD_PROFILE,
)


class TestSSDProfiles:
    def test_intel_faster_than_transcend_for_random_reads(self):
        intel = SSD(profile=INTEL_SSD_PROFILE, clock=SimulationClock())
        transcend = SSD(profile=TRANSCEND_SSD_PROFILE, clock=SimulationClock())
        _d, intel_latency = intel.read_page(100)
        _d, transcend_latency = transcend.read_page(100)
        assert intel_latency < transcend_latency

    def test_intel_faster_than_transcend_for_random_writes(self):
        intel = SSD(profile=INTEL_SSD_PROFILE, clock=SimulationClock())
        transcend = SSD(profile=TRANSCEND_SSD_PROFILE, clock=SimulationClock())
        assert intel.write_page(0, b"x") < transcend.write_page(0, b"x")

    def test_sequential_writes_cheaper_than_random(self, intel_ssd):
        random_latency = intel_ssd.write_page(1000, b"x" * 512, sequential=False)
        sequential_latency = intel_ssd.write_page(1001, b"x" * 512, sequential=True)
        assert sequential_latency < random_latency


class TestSSDGarbageCollection:
    def test_starts_with_full_clean_pool(self, intel_ssd):
        assert intel_ssd.clean_pool_fraction == pytest.approx(1.0)
        assert not intel_ssd.in_gc_mode

    def test_sustained_random_writes_enter_gc_mode(self, intel_ssd):
        writes_needed = (
            INTEL_SSD_PROFILE.clean_pool_bytes
            // int(512 * INTEL_SSD_PROFILE.random_write_amplification)
        ) + 50
        for i in range(writes_needed):
            intel_ssd.write_page((i * 37) % intel_ssd.geometry.total_pages, b"x", sequential=False)
        assert intel_ssd.in_gc_mode
        assert intel_ssd.gc_stall_count > 0

    def test_gc_mode_inflates_read_latency(self, intel_ssd):
        _d, healthy_latency = intel_ssd.read_page(0)
        writes_needed = (
            INTEL_SSD_PROFILE.clean_pool_bytes
            // int(512 * INTEL_SSD_PROFILE.random_write_amplification)
        ) + 50
        for i in range(writes_needed):
            intel_ssd.write_page((i * 37) % intel_ssd.geometry.total_pages, b"x", sequential=False)
        _d, degraded_latency = intel_ssd.read_page(5000)
        assert degraded_latency > healthy_latency + INTEL_SSD_PROFILE.gc_penalty_ms / 2

    def test_sequential_writes_do_not_trigger_gc(self, intel_ssd):
        pages = [b"x" * 512 for _ in range(64)]
        for batch in range(40):
            intel_ssd.write_range(batch * 64, pages)
        assert not intel_ssd.in_gc_mode

    def test_idle_time_replenishes_pool(self, clock, intel_ssd):
        writes_needed = (
            INTEL_SSD_PROFILE.clean_pool_bytes
            // int(512 * INTEL_SSD_PROFILE.random_write_amplification)
        ) + 50
        for i in range(writes_needed):
            intel_ssd.write_page((i * 37) % intel_ssd.geometry.total_pages, b"x", sequential=False)
        assert intel_ssd.in_gc_mode
        # A long idle period lets background GC rebuild the clean pool.
        clock.advance(60_000.0)
        assert not intel_ssd.in_gc_mode
        assert intel_ssd.clean_pool_fraction == pytest.approx(1.0)

    def test_light_write_load_stays_healthy(self, clock, intel_ssd):
        """Writes spaced out in time (low rate) never exhaust the clean pool."""
        for i in range(500):
            intel_ssd.write_page((i * 37) % intel_ssd.geometry.total_pages, b"x", sequential=False)
            clock.advance(10.0)  # 10 ms of idle time between writes
        assert not intel_ssd.in_gc_mode


class ReplenishingSSD(SSD):
    """The read route as it was before the shortcut: background GC credited
    and the GC mode re-evaluated before every read, the cost taken from the
    model per call."""

    def _read_latency(self, nbytes, sequential):
        self._replenish_credit()
        self._update_gc_mode()
        model = self._cost_model
        base = (model.sequential_read if sequential else model.random_read).cost(nbytes)
        if self._gc_mode:
            base += self.profile.gc_penalty_ms
        return base


def _drive_both(profile, seed, length):
    """One seeded stream of page reads, page writes (single and in pool-draining
    bursts), range writes and idle time against an :class:`SSD` and a
    :class:`ReplenishingSSD`; returns what the stream reached.

    Latency, ``gc_stall_count`` and the clock are compared after every I/O.
    ``clean_pool_fraction`` and ``in_gc_mode`` credit background GC when read,
    which would do on the device under test exactly what its read skipped, so
    each is compared after one step in four (and the last) — separately: a
    pool read back full while the GC flag is still up is a state of its own —
    and the raw GC flag after every step.
    """
    rng = random.Random(seed)
    fast, reference = SSD(profile=profile), ReplenishingSSD(profile=profile)
    pages = fast.geometry.total_pages
    payload = b"p" * 64
    # Random page writes that would empty a full pool if none of it came back
    # meanwhile (a write in GC mode lasts long enough to win back most of its own).
    drain = int(profile.clean_pool_bytes / (512 * profile.random_write_amplification))
    reach = Counter()
    drained = False  # did the previous step's writes take the pool under the low watermark?

    def same(fast_latency, reference_latency):
        assert fast_latency == reference_latency
        assert fast.clock.now_ms.hex() == reference.clock.now_ms.hex()
        assert fast.gc_stall_count == reference.gc_stall_count

    def write(page):
        same(fast.write_page(page, payload), reference.write_page(page, payload))

    for step in range(length):
        was_in_gc = fast._gc_mode
        kind = rng.random()
        if kind < 0.50:
            page = rng.randrange(pages)
            if rng.random() < 0.3:
                page = (fast._last_accessed_page or 0) + 1  # sequential
            shortcut = not fast._gc_mode and fast._clean_credit_bytes == fast._pool_bytes
            reach["shortcut" if shortcut else "full_route"] += 1
            reach["read_after_draining_write"] += drained
            (_data, fast_latency), (_data, reference_latency) = (
                fast.read_page(page % pages),
                reference.read_page(page % pages),
            )
            same(fast_latency, reference_latency)
            reach["read_in_gc_mode"] += fast_latency > profile.gc_penalty_ms
        elif kind < 0.60:
            write(rng.randrange(pages))
        elif kind < 0.68:
            for _ in range(rng.randint(1, 3 * drain)):
                write(rng.randrange(pages))
        elif kind < 0.80:
            start, images = rng.randrange(pages - 64), [payload] * rng.randint(4, 64)
            same(fast.write_range(start, images), reference.write_range(start, images))
        else:
            idle_ms = rng.choice([0.01, 5.0, 400.0, 3000.0, 3000.0])
            fast.clock.advance(idle_ms)
            reference.clock.advance(idle_ms)
        if rng.random() < 0.25 or step == length - 1:
            assert fast.clean_pool_fraction == reference.clean_pool_fraction
        if rng.random() < 0.25 or step == length - 1:
            assert fast.in_gc_mode == reference.in_gc_mode
        assert fast._gc_mode == reference._gc_mode
        drained = fast._gc_mode and not was_in_gc
        reach["gc_entered"] += drained
        reach["gc_left"] += was_in_gc and not fast._gc_mode
    return reach


@pytest.mark.parametrize(
    "profile", [INTEL_SSD_PROFILE, TRANSCEND_SSD_PROFILE], ids=lambda profile: profile.name
)
def test_read_shortcut_is_indistinguishable_from_replenishing_before_every_read(profile):
    """``read_page`` skips ``_read_latency`` (``_replenish_credit`` +
    ``_update_gc_mode``) when the clean pool is full and the drive is out of
    GC mode, taking the SSD's steady page cost.  Every
    latency, stall count, pool fraction, GC-mode reading and clock reading of
    seeded I/O streams equals, bit for bit, that of a device which never
    skips — and the streams provably visit both routes on both sides of GC."""
    reach = Counter()

    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(40, 300))
    @settings(
        max_examples=15,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def streams(seed, length):
        reach.update(_drive_both(profile, seed, length))

    streams()
    assert reach["shortcut"] >= 100 and reach["full_route"] >= 100, reach
    assert reach["gc_entered"] >= 1 and reach["gc_left"] >= 1, reach
    assert reach["read_in_gc_mode"] >= 1, reach
    assert reach["read_after_draining_write"] >= 1, reach


def test_only_the_class_that_computes_the_steady_page_costs_hands_them_to_read_page():
    """``read_page`` takes an SSD's page cost without asking ``_read_latency``
    while the pool is full and out of GC mode; a subclass with a read route
    of its own (the reference above) is asked on every read."""
    fast, reference = SSD(), ReplenishingSSD()
    assert fast._steady_read_costs == fast._page_read_costs
    assert reference._steady_read_costs is None
    profile = fast.profile
    drain = profile.clean_pool_bytes // int(512 * profile.random_write_amplification) + 50
    for page in range(drain):  # random writes: the pool drains, GC mode starts
        fast.write_page((page * 37) % fast.geometry.total_pages, b"x", sequential=False)
    assert fast.in_gc_mode and fast._steady_read_costs is None
    fast.clock.advance(60_000.0)  # idle: background GC refills the pool
    assert not fast.in_gc_mode and fast._steady_read_costs == fast._page_read_costs


def test_gc_low_watermark_must_sit_below_the_high_one():
    """A full pool is above both watermarks: what the read shortcut relies on."""
    with pytest.raises(ValueError, match="watermark"):
        SSD(profile=replace(INTEL_SSD_PROFILE, gc_read_threshold_fraction=0.5))
