"""Tests for I/O statistics and the percentile helper."""

import pytest

from repro.flashsim import SSD, FlashChip, IOKind, IOStats
from repro.flashsim.stats import percentile
from repro.telemetry.trace import Tracer, tracing


def _add(stats, kind=IOKind.READ, nbytes=512, latency=1.0, sequential=False):
    stats.add(kind, nbytes, latency, sequential)


class TestIOStats:
    def test_counts_by_kind(self):
        stats = IOStats()
        _add(stats, IOKind.READ)
        _add(stats, IOKind.READ)
        _add(stats, IOKind.WRITE)
        assert stats.count(IOKind.READ) == 2
        assert stats.count(IOKind.WRITE) == 1
        assert stats.count(IOKind.ERASE) == 0
        assert stats.count() == 3

    def test_bytes_moved(self):
        stats = IOStats()
        _add(stats, nbytes=100)
        _add(stats, nbytes=200)
        assert stats.bytes_moved(IOKind.READ) == 300
        assert stats.bytes_moved() == 300

    def test_latency_aggregates(self):
        stats = IOStats()
        _add(stats, latency=1.0)
        _add(stats, latency=3.0)
        assert stats.total_latency_ms(IOKind.READ) == pytest.approx(4.0)
        assert stats.mean_latency_ms(IOKind.READ) == pytest.approx(2.0)
        assert stats.max_latency_ms(IOKind.READ) == pytest.approx(3.0)

    def test_mean_latency_of_unused_kind_is_zero(self):
        assert IOStats().mean_latency_ms(IOKind.ERASE) == 0.0

    def test_sequential_counts(self):
        stats = IOStats()
        _add(stats, sequential=True)
        _add(stats, sequential=False)
        assert stats.totals[IOKind.READ].sequential == 1

    def test_snapshot_keys(self):
        stats = IOStats()
        _add(stats)
        snap = stats.snapshot()
        assert snap["read_ops"] == 1.0
        assert snap["total_ops"] == 1.0
        assert "write_mean_ms" in snap


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


def _traced_drive(device):
    """:func:`_drive` under a tracer: ``(observed, device spans)``."""
    tracer = Tracer()
    with tracing(tracer):
        observed = _drive(device)
    return observed, tracer.spans


class TestDeviceAccounting:
    """What a device records per I/O does not depend on who is listening."""

    def test_aggregates_do_not_depend_on_keeping_events(self):
        """A tracer keeping a device event per I/O changes no total."""
        quiet, traced = SSD(), SSD()
        observed, _spans = _traced_drive(traced)
        assert _drive(quiet) == observed
        assert quiet.stats.snapshot() == traced.stats.snapshot()
        assert quiet.stats.totals == traced.stats.totals
        assert quiet.clock.now_ms == traced.clock.now_ms

    def test_kept_events_carry_every_io_with_its_completion_time(self):
        """One ``device.*`` span per I/O, ending at its completion time and
        starting its latency earlier."""
        observed, spans = _traced_drive(SSD())
        assert [
            (IOKind(span.name.removeprefix("device.")), span.attributes["nbytes"], span.end_ms)
            for span in spans
        ] == [(kind, nbytes, done_ms) for kind, nbytes, _latency, done_ms in observed]
        assert [span.start_ms for span in spans] == [
            done_ms - latency for _kind, _nbytes, latency, done_ms in observed
        ]
        sequential = [span.attributes["sequential"] for span in spans]
        assert sequential[:4] == [True] * 4  # streaming writes
        assert sequential[4:11] == [False, True, True, False, False, False, True]

    def test_tracer_sees_one_device_event_per_io(self):
        observed, spans = _traced_drive(SSD(name="traced-ssd"))
        assert len(spans) == len(observed)
        for span, (kind, nbytes, _latency, _done_ms) in zip(spans, observed):
            assert span.name == "device." + kind.value
            assert sorted(span.attributes) == ["device", "nbytes", "sequential"]
            assert (span.attributes["device"], span.attributes["nbytes"]) == ("traced-ssd", nbytes)

    def test_tracer_alone_sees_the_same_events_as_the_event_log(self):
        """A page read calls out to a listening tracer (it leaves its inline
        fast path): the spans match what each call of an untraced twin reported."""
        untraced = _drive(SSD(name="ssd"))
        _observed, spans = _traced_drive(SSD(name="ssd"))
        assert [(span.name, span.start_ms, span.end_ms) for span in spans] == [
            ("device." + kind.value, done_ms - latency, done_ms)
            for kind, _nbytes, latency, done_ms in untraced
        ]
        reads = [span for span in spans if span.name == "device.read"]
        assert sum(span.attributes["nbytes"] == 512 for span in reads) == 7

    def test_per_kind_totals_hold_what_the_per_kind_dicts_held(self):
        """The per-kind count, sequential count, byte and latency totals against
        the five dicts the old ``add`` maintained, rebuilt here from the
        tracer's device spans."""
        chip, ssd = FlashChip(), SSD()
        tracers = {chip: Tracer(), ssd: Tracer()}
        with tracing(tracers[chip]):
            chip.write_range(0, [b"a", b"b", b"c"])
            chip.read_page(0)
            chip.read_page(1)  # sequential
            chip.read_page(40)
            chip.erase_block(0)
            chip.write_page(2, b"again")
        with tracing(tracers[ssd]):
            ssd.read_page(7)
            ssd.read_page(9)  # reads only, none sequential
        assert {span.name for span in tracers[chip].spans} == {
            "device." + kind.value for kind in IOKind
        }
        for device, tracer in tracers.items():
            counts, nbytes, totals, maxima, sequential = {}, {}, {}, {}, {}
            for span in tracer.spans:
                kind = IOKind(span.name.removeprefix("device."))
                latency = span.duration_ms
                counts[kind] = counts.get(kind, 0) + 1
                nbytes[kind] = nbytes.get(kind, 0) + span.attributes["nbytes"]
                totals[kind] = totals.get(kind, 0.0) + latency
                if latency > maxima.get(kind, 0.0):
                    maxima[kind] = latency
                if span.attributes["sequential"]:
                    sequential[kind] = sequential.get(kind, 0) + 1
            for kind in IOKind:
                assert device.stats.count(kind) == counts.get(kind, 0)
                assert device.stats.totals[kind].sequential == sequential.get(kind, 0)
                assert device.stats.bytes_moved(kind) == nbytes.get(kind, 0)
                assert device.stats.total_latency_ms(kind) == pytest.approx(totals.get(kind, 0.0))
                assert device.stats.max_latency_ms(kind) == pytest.approx(maxima.get(kind, 0.0))
        assert [kind for kind in IOKind if ssd.stats.count(kind)] == [IOKind.READ]
        assert ssd.stats.totals[IOKind.READ].sequential == 0

    def test_stats_compare_by_value(self):
        one, other = SSD(), SSD()
        assert one.stats == other.stats
        one.read_page(5)
        assert one.stats != other.stats
        other.read_page(5)
        assert one.stats == other.stats
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
