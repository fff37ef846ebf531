"""Tests for the in-memory buffer of a super table."""

import pytest

from bloom_reference import reference_column
from repro.core.buffer import Buffer
from repro.core.hashing import as_digest
from repro.core.sliced_bloom import BitSlicedBloomArray


def _buffer(capacity=16, slots=32, bloom_bits=256):
    return Buffer(capacity_items=capacity, num_slots=slots, bloom_bits=bloom_bits)


def _column_written_from(buffer, key_words, item_count):
    """The column a flush writes from what the buffer handed over, as bytes."""
    sliced = BitSlicedBloomArray(buffer.bloom_bits, buffer.bloom_hashes, max_incarnations=1)
    sliced.append_keys(key_words, item_count, "incarnation")
    return sliced.column_bytes("incarnation")


def _reference(buffer, *keys):
    """``column_bytes`` of the filter that holds ``keys``, one count each."""
    return reference_column(keys, buffer.bloom_hashes, buffer.bloom_bits), len(keys)


def _words_of(*keys):
    return [as_digest(key).clam_words() for key in keys]


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

    def test_drained_words_track_inserted_keys(self):
        buffer = _buffer()
        buffer.put(b"key", b"value")
        _items, key_words, item_count = buffer.drain()
        assert _column_written_from(buffer, key_words, item_count) == _reference(buffer, b"key")

    def test_delete(self):
        buffer = _buffer()
        buffer.put(b"key", b"value")
        assert buffer.delete(b"key") is True
        assert buffer.get(b"key") is None

    def test_drain_returns_items_their_words_and_the_put_count(self):
        buffer = _buffer(capacity=8)
        for i in range(5):
            buffer.put(b"k%d" % i, b"v%d" % i)
        items, key_words, item_count = buffer.drain()
        assert items == {b"k%d" % i: b"v%d" % i for i in range(5)}
        assert key_words == _words_of(*items)
        assert item_count == 5
        written = _column_written_from(buffer, key_words, item_count)
        assert written == _reference(buffer, *(b"k%d" % i for i in range(5)))
        # After draining, the buffer is empty and what decides the next filter reset.
        assert len(buffer) == 0
        assert buffer.drain() == ({}, [], 0)

    def test_drain_of_empty_buffer(self):
        items, key_words, item_count = _buffer().drain()
        assert items == {}
        assert key_words == []
        assert item_count == 0

    def test_a_deleted_key_stays_in_the_filter(self):
        # Its bits were set when it was put; they only cause a harmless false
        # positive, and the filter must not depend on the order of events.
        buffer = _buffer()
        buffer.put(b"kept", b"1")
        buffer.put(b"gone", b"2")
        assert buffer.delete(b"gone") is True
        assert buffer.delete(b"gone") is False
        assert buffer.delete(b"never") is False
        items, key_words, item_count = buffer.drain()
        assert items == {b"kept": b"1"}
        assert key_words == _words_of(b"kept", b"gone")
        assert item_count == 2

    def test_every_successful_put_counts_and_a_refused_one_does_not(self):
        buffer = _buffer(capacity=2)
        assert buffer.put(b"a", b"1") and buffer.put(b"a", b"2") and buffer.put(b"b", b"3")
        assert buffer.put(b"c", b"4") is False  # full
        items, key_words, item_count = buffer.drain()
        assert items == {b"a": b"2", b"b": b"3"}
        assert key_words == _words_of(*items)
        assert item_count == 3

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
