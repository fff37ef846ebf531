"""Tests for the linear I/O cost model."""

import pytest

from repro.flashsim import IOCost, LinearCostModel


class TestIOCost:
    def test_cost_is_linear_in_size(self):
        cost = IOCost(fixed_ms=1.0, per_byte_ms=0.01)
        assert cost.cost(0) == pytest.approx(1.0)
        assert cost.cost(100) == pytest.approx(2.0)

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            IOCost(fixed_ms=-1.0, per_byte_ms=0.0)
        with pytest.raises(ValueError):
            IOCost(fixed_ms=0.0, per_byte_ms=-0.1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            IOCost(fixed_ms=0.0, per_byte_ms=0.0).cost(-1)

    def test_zero_cost_model_allowed(self):
        assert IOCost(0.0, 0.0).cost(1000) == 0.0


class TestLinearCostModel:
    @pytest.fixture
    def model(self) -> LinearCostModel:
        return LinearCostModel(
            random_read=IOCost(0.2, 0.001),
            sequential_read=IOCost(0.05, 0.001),
            random_write=IOCost(0.5, 0.002),
            sequential_write=IOCost(0.1, 0.001),
            erase=IOCost(1.5, 0.0001),
        )

    def test_random_read_more_expensive_than_sequential(self, model):
        assert model.read_cost(512, sequential=False) > model.read_cost(512, sequential=True)

    def test_random_write_more_expensive_than_sequential(self, model):
        assert model.write_cost(512, sequential=False) > model.write_cost(512, sequential=True)

    def test_erase_cost(self, model):
        assert model.erase_cost(1000) == pytest.approx(1.5 + 0.1)

    def test_batching_amortizes_fixed_cost(self, model):
        """One big sequential write is cheaper than many small ones (principle P3)."""
        one_big = model.write_cost(64 * 512, sequential=True)
        many_small = 64 * model.write_cost(512, sequential=True)
        assert one_big < many_small
