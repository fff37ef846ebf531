"""Tests for I/O statistics and the percentile helper."""

import pytest

from repro.flashsim import SSD, FlashChip, IOEvent, IOKind, IOStats
from repro.flashsim.stats import percentile
from repro.telemetry.trace import Tracer, tracing


def _event(kind=IOKind.READ, nbytes=512, latency=1.0, sequential=False, ts=0.0):
    return IOEvent(kind=kind, nbytes=nbytes, latency_ms=latency, sequential=sequential, timestamp_ms=ts)


class TestIOStats:
    def test_counts_by_kind(self):
        stats = IOStats()
        stats.record(_event(IOKind.READ))
        stats.record(_event(IOKind.READ))
        stats.record(_event(IOKind.WRITE))
        assert stats.count(IOKind.READ) == 2
        assert stats.count(IOKind.WRITE) == 1
        assert stats.count(IOKind.ERASE) == 0
        assert stats.count() == 3

    def test_bytes_moved(self):
        stats = IOStats()
        stats.record(_event(nbytes=100))
        stats.record(_event(nbytes=200))
        assert stats.bytes_moved(IOKind.READ) == 300
        assert stats.bytes_moved() == 300

    def test_latency_aggregates(self):
        stats = IOStats()
        stats.record(_event(latency=1.0))
        stats.record(_event(latency=3.0))
        assert stats.total_latency_ms(IOKind.READ) == pytest.approx(4.0)
        assert stats.mean_latency_ms(IOKind.READ) == pytest.approx(2.0)
        assert stats.max_latency_ms(IOKind.READ) == pytest.approx(3.0)

    def test_mean_latency_of_unused_kind_is_zero(self):
        assert IOStats().mean_latency_ms(IOKind.ERASE) == 0.0

    def test_events_not_kept_by_default(self):
        stats = IOStats()
        stats.record(_event())
        assert stats.events == []

    def test_events_kept_when_requested(self):
        stats = IOStats(keep_events=True)
        stats.record(_event())
        assert len(stats.events) == 1

    def test_sequential_counts(self):
        stats = IOStats()
        stats.record(_event(sequential=True))
        stats.record(_event(sequential=False))
        assert stats.sequential_counts[IOKind.READ] == 1

    def test_reset(self):
        stats = IOStats(keep_events=True)
        stats.record(_event())
        stats.reset()
        assert stats.count() == 0
        assert stats.events == []

    def test_snapshot_keys(self):
        stats = IOStats()
        stats.record(_event())
        snap = stats.snapshot()
        assert snap["read_ops"] == 1.0
        assert snap["total_ops"] == 1.0
        assert "write_mean_ms" in snap

    def test_add_folds_without_an_event_and_record_is_add_of_its_fields(self):
        added, recorded = IOStats(keep_events=True), IOStats(keep_events=True)
        added.add(IOKind.WRITE, 4096, 0.25, True, 7.5)
        recorded.record(_event(IOKind.WRITE, nbytes=4096, latency=0.25, sequential=True, ts=7.5))
        assert added == recorded
        assert added.events == [_event(IOKind.WRITE, 4096, 0.25, True, 7.5)]


def _drive(device):
    """A fixed mix of page and streaming I/O; returns what each call reported."""
    observed = []  # (kind, nbytes, latency_ms, clock reading after the I/O)
    page = device.geometry.page_size
    for start in (0, 64, 65, 4000):
        latency = device.write_range(start, [b"a", b"b", b"c"])
        observed.append((IOKind.WRITE, 3 * page, latency, device.clock.now_ms))
        device.clock.advance(0.004)
    for index in (0, 1, 2, 64, 4001, 9, 10):
        _payload, latency = device.read_page(index)
        observed.append((IOKind.READ, page, latency, device.clock.now_ms))
        device.clock.advance(0.0002)
    latency = device.write_page(77, b"x")
    observed.append((IOKind.WRITE, page, latency, device.clock.now_ms))
    _pages, latency = device.read_range(64, 2)
    observed.append((IOKind.READ, 2 * page, latency, device.clock.now_ms))
    return observed


class TestDeviceAccounting:
    """What a device records per I/O does not depend on who is listening."""

    def test_aggregates_do_not_depend_on_keeping_events(self):
        quiet, logged = SSD(), SSD(keep_events=True)
        assert _drive(quiet) == _drive(logged)
        assert quiet.stats.events == []
        assert quiet.stats.snapshot() == logged.stats.snapshot()
        for name in ("op_counts", "sequential_counts"):
            assert getattr(quiet.stats, name) == getattr(logged.stats, name)
        assert quiet.clock.now_ms == logged.clock.now_ms

    def test_kept_events_carry_every_io_with_its_completion_time(self):
        device = SSD(keep_events=True)
        observed = _drive(device)
        events = device.stats.events
        assert [(e.kind, e.nbytes, e.latency_ms, e.timestamp_ms) for e in events] == observed
        assert [e.sequential for e in events[:4]] == [True] * 4  # streaming writes
        assert [e.sequential for e in events[4:11]] == [False, True, True, False, False, False, True]

    def test_tracer_sees_one_device_event_per_io(self):
        device = SSD(keep_events=True, name="traced-ssd")
        tracer = Tracer()
        with tracing(tracer):
            _drive(device)
        assert len(tracer.spans) == len(device.stats.events)
        for span, event in zip(tracer.spans, device.stats.events):
            assert span.name == "device." + event.kind.value
            assert span.end_ms == event.timestamp_ms
            assert span.start_ms == event.timestamp_ms - event.latency_ms
            assert span.attributes == {
                "device": "traced-ssd",
                "nbytes": event.nbytes,
                "sequential": event.sequential,
            }


    def test_tracer_alone_sees_the_same_events_as_the_event_log(self):
        """A page read calls out when either listener is on, not only both."""
        logged, traced = SSD(keep_events=True, name="ssd"), SSD(name="ssd")
        _drive(logged)
        tracer = Tracer()
        with tracing(tracer):
            observed = _drive(traced)
        assert traced.stats.events == []
        seen = [(span.name, span.start_ms, span.end_ms, span.attributes) for span in tracer.spans]
        assert seen == [
            (
                "device." + event.kind.value,
                event.timestamp_ms - event.latency_ms,
                event.timestamp_ms,
                {"device": "ssd", "nbytes": event.nbytes, "sequential": event.sequential},
            )
            for event in logged.stats.events
        ]
        assert sum(kind is IOKind.READ and nbytes == 512 for kind, nbytes, *_ in observed) == 7
        assert traced.stats.totals == logged.stats.totals

    def test_a_read_after_reset_is_counted(self):
        """The device folds page reads into a totals record it bound at
        construction; ``reset`` must zero that record, not replace it."""
        device = SSD()
        device.write_page(3, b"x")
        device.read_page(3)
        device.stats.reset()
        assert device.stats.count() == 0 and device.stats.op_counts == {}
        assert device.stats.snapshot()["read_max_ms"] == 0.0
        _payload, latency = device.read_page(3)
        assert device.stats.count(IOKind.READ) == 1
        assert device.stats.bytes_moved(IOKind.READ) == 512
        assert device.stats.total_latency_ms(IOKind.READ) == latency
        assert device.stats.op_counts == {IOKind.READ: 1}

    def test_dict_views_hold_what_the_per_kind_dicts_held(self):
        """``op_counts``, ``sequential_counts`` and the per-kind byte and latency
        accessors against the five dicts the old ``add`` maintained, rebuilt
        here from the kept events."""
        chip = FlashChip(keep_events=True)
        chip.write_range(0, [b"a", b"b", b"c"])
        chip.read_page(0)
        chip.read_page(1)  # sequential
        chip.read_page(40)
        chip.erase_block(0)
        chip.write_page(2, b"again")
        assert {event.kind for event in chip.stats.events} == set(IOKind)
        ssd = SSD(keep_events=True)
        ssd.read_page(7)
        ssd.read_page(9)  # reads only, none sequential
        for device in (chip, ssd):
            counts, nbytes, totals, maxima, sequential = {}, {}, {}, {}, {}
            for event in device.stats.events:
                kind = event.kind
                counts[kind] = counts.get(kind, 0) + 1
                nbytes[kind] = nbytes.get(kind, 0) + event.nbytes
                totals[kind] = totals.get(kind, 0.0) + event.latency_ms
                if event.latency_ms > maxima.get(kind, 0.0):
                    maxima[kind] = event.latency_ms
                if event.sequential:
                    sequential[kind] = sequential.get(kind, 0) + 1
            assert device.stats.op_counts == counts
            assert device.stats.sequential_counts == sequential
            for kind in IOKind:
                assert device.stats.bytes_moved(kind) == nbytes.get(kind, 0)
                assert device.stats.total_latency_ms(kind) == totals.get(kind, 0.0)
                assert device.stats.max_latency_ms(kind) == maxima.get(kind, 0.0)
        assert list(ssd.stats.op_counts) == [IOKind.READ]
        assert ssd.stats.sequential_counts == {}

    def test_stats_compare_by_value(self):
        one, other = SSD(), SSD()
        assert one.stats == other.stats
        one.read_page(5)
        assert one.stats != other.stats
        other.read_page(5)
        assert one.stats == other.stats
        assert one.stats != SSD(keep_events=True).stats
        assert one.stats != object()


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([1, 2, 3], 0.5) == 2

    def test_interpolates(self):
        assert percentile([0, 10], 0.25) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5, 1, 9, 3]
        assert percentile(data, 0.0) == 1
        assert percentile(data, 1.0) == 9

    def test_single_value(self):
        assert percentile([7.0], 0.9) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
