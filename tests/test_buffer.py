"""Tests for the in-memory buffer of a super table."""

import pytest

from repro.core.buffer import Buffer


def _buffer(capacity=16, slots=32, bloom_bits=256):
    return Buffer(capacity_items=capacity, num_slots=slots, bloom_bits=bloom_bits)


class TestBuffer:
    def test_put_and_get(self):
        buffer = _buffer()
        assert buffer.put(b"key", b"value") is True
        assert buffer.get(b"key") == b"value"

    def test_is_full_at_capacity(self):
        buffer = _buffer(capacity=4)
        for i in range(4):
            assert buffer.put(b"k%d" % i, b"v") is True
        assert len(buffer) == buffer.capacity_items

    def test_put_refused_when_full(self):
        buffer = _buffer(capacity=4)
        for i in range(4):
            buffer.put(b"k%d" % i, b"v")
        assert buffer.put(b"new", b"v") is False

    def test_existing_key_can_be_updated_even_when_full(self):
        buffer = _buffer(capacity=4)
        for i in range(4):
            buffer.put(b"k%d" % i, b"v")
        assert buffer.put(b"k0", b"updated") is True
        assert buffer.get(b"k0") == b"updated"

    def test_bloom_filter_tracks_inserted_keys(self):
        buffer = _buffer()
        buffer.put(b"key", b"value")
        _items, frozen = buffer.drain()
        assert b"key" in frozen

    def test_delete(self):
        buffer = _buffer()
        buffer.put(b"key", b"value")
        assert buffer.delete(b"key") is True
        assert buffer.get(b"key") is None

    def test_drain_returns_items_and_frozen_filter(self):
        buffer = _buffer(capacity=8)
        for i in range(5):
            buffer.put(b"k%d" % i, b"v%d" % i)
        items, frozen = buffer.drain()
        assert items == {b"k%d" % i: b"v%d" % i for i in range(5)}
        assert all(b"k%d" % i in frozen for i in range(5))
        # After draining, the buffer is empty and its live filter reset.
        assert len(buffer) == 0
        assert b"k0" not in buffer.drain()[1]

    def test_drain_of_empty_buffer(self):
        items, frozen = _buffer().drain()
        assert items == {}
        assert frozen.item_count == 0

    def test_len_counts_items(self):
        buffer = _buffer()
        buffer.put(b"a", b"1")
        buffer.put(b"b", b"2")
        assert len(buffer) == 2

    def test_items_snapshot(self):
        buffer = _buffer()
        buffer.put(b"a", b"1")
        snapshot = buffer.items()
        buffer.put(b"b", b"2")
        assert snapshot == {b"a": b"1"}

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            Buffer(capacity_items=0, num_slots=8, bloom_bits=64)
        with pytest.raises(ValueError):
            Buffer(capacity_items=16, num_slots=8, bloom_bits=64)
