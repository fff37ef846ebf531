"""Tests for the simulation clock and the multi-clock ensemble view."""

import pytest

from repro.flashsim import ClockEnsemble, SimulationClock


def ensemble_of(*clocks):
    ensemble = ClockEnsemble()
    for clock in clocks:
        ensemble.add(clock)
    return ensemble


class TestSimulationClock:
    def test_starts_at_zero_by_default(self):
        assert SimulationClock().now_ms == 0.0

    def test_advance_accumulates(self):
        clock = SimulationClock()
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now_ms == pytest.approx(4.0)

    def test_advance_returns_new_time(self):
        clock = SimulationClock()
        assert clock.advance(3.0) == pytest.approx(3.0)

    def test_advance_negative_rejected(self):
        clock = SimulationClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_zero_allowed(self):
        clock = SimulationClock()
        clock.advance(0.0)
        assert clock.now_ms == 0.0

    @pytest.mark.parametrize("amount", [float("nan"), float("inf"), float("-inf")])
    def test_advance_refuses_an_amount_that_is_not_finite(self, amount):
        # ``nan < 0`` is False: a sign test alone lets NaN through.
        clock = SimulationClock()
        clock.advance(1.0)
        with pytest.raises(ValueError):
            clock.advance(amount)
        assert clock.now_ms == 1.0


class TestClockEnsemble:
    def test_empty_ensemble_reads_zero(self):
        ensemble = ClockEnsemble()
        assert ensemble.now_ms == 0.0
        assert ensemble.busy_ms == 0.0
        assert ensemble.skew_ms == 0.0
        assert len(ensemble) == 0

    def test_now_is_slowest_member(self):
        a, b, c = SimulationClock(), SimulationClock(), SimulationClock()
        ensemble = ensemble_of(a, b, c)
        a.advance(5.0)
        b.advance(12.0)
        c.advance(1.0)
        assert ensemble.now_ms == pytest.approx(12.0)

    def test_busy_is_total_work(self):
        a, b = SimulationClock(), SimulationClock()
        ensemble = ensemble_of(a, b)
        a.advance(5.0)
        b.advance(7.0)
        assert ensemble.busy_ms == pytest.approx(12.0)

    def test_skew_spans_fastest_to_slowest(self):
        a, b = SimulationClock(), SimulationClock()
        ensemble = ensemble_of(a, b)
        a.advance(3.0)
        b.advance(10.0)
        assert ensemble.skew_ms == pytest.approx(7.0)

    def test_add_and_remove_members(self):
        a = SimulationClock()
        ensemble = ensemble_of(a)
        late = SimulationClock()
        late.advance(42.0)
        ensemble.add(late)
        assert ensemble.now_ms == pytest.approx(42.0)
        ensemble.remove(late)
        assert len(ensemble) == 1
        # Time is monotonic across membership changes: the removed member's
        # final time is retired into a floor, not rewound.
        assert ensemble.now_ms == pytest.approx(42.0)
        assert ensemble.busy_ms == pytest.approx(42.0)
        a.advance(50.0)
        assert ensemble.now_ms == pytest.approx(50.0)
        assert ensemble.busy_ms == pytest.approx(92.0)

    def test_rejoining_member_is_not_double_counted(self):
        clock = SimulationClock()
        clock.advance(100.0)
        ensemble = ensemble_of(clock)
        ensemble.remove(clock)
        ensemble.add(clock)
        assert ensemble.busy_ms == pytest.approx(100.0)
        assert ensemble.now_ms == pytest.approx(100.0)
        assert len(ensemble) == 1

    def test_rejects_non_clock_members(self):
        with pytest.raises(TypeError):
            ClockEnsemble().add(object())
