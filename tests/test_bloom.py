"""Tests for a Bloom filter as the CLAM keeps one: a column of the bit-sliced
array, written from its keys' CLAM words (``append_keys``) and asked through
``candidates``."""

import pytest
from hypothesis import given, settings, strategies as st

from bloom_reference import reference_column
from repro.core import BitSlicedBloomArray, optimal_num_hashes
from repro.core.hashing import KeyDigest, as_digest


class TestHelpers:
    def test_optimal_num_hashes(self):
        # m/n = 16 bits per item -> about 11 hash functions.
        assert optimal_num_hashes(16.0) == 11
        assert optimal_num_hashes(1.0) == 1

    def test_optimal_num_hashes_rejects_non_positive(self):
        with pytest.raises(ValueError):
            optimal_num_hashes(0)


def _column(keys, capacity, bits_per_item=16.0):
    """A one-column array holding ``keys``, sized for ``capacity`` of them."""
    num_bits = max(8, int(capacity * bits_per_item))
    sliced = BitSlicedBloomArray(num_bits, optimal_num_hashes(bits_per_item), max_incarnations=1)
    sliced.append_keys([as_digest(key).clam_words() for key in keys], len(keys), "column")
    return sliced


class TestBloomColumn:
    def test_no_false_negatives(self):
        keys = [b"key-%d" % i for i in range(100)]
        sliced = _column(keys, 100)
        assert all(sliced.candidates(key) == ["column"] for key in keys)

    def test_empty_column_holds_nothing(self):
        sliced = _column([], 10)
        assert sliced.candidates(b"anything") == []
        bits, item_count = sliced.column_bytes("column")
        assert bits == bytes(len(bits)) and item_count == 0

    def test_false_positive_rate_is_low_when_properly_sized(self):
        sliced = _column([b"member-%d" % i for i in range(500)], 500, bits_per_item=16)
        false_positives = sum(1 for i in range(5000) if sliced.candidates(b"absent-%d" % i))
        assert false_positives / 5000 < 0.01

    def test_item_count_is_kept_beside_the_column(self):
        sliced = BitSlicedBloomArray(num_bits=160, num_hashes=11, max_incarnations=1)
        sliced.append_keys([as_digest(key).clam_words() for key in (b"a", b"b")], 2, "column")
        assert sliced.column_bytes("column")[1] == 2

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            BitSlicedBloomArray(num_bits=0, num_hashes=3, max_incarnations=1)
        with pytest.raises(ValueError):
            BitSlicedBloomArray(num_bits=8, num_hashes=0, max_incarnations=1)
        with pytest.raises(ValueError):
            BitSlicedBloomArray(num_bits=8, num_hashes=3, max_incarnations=0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=64, unique=True))
    def test_property_every_added_key_is_reported_present(self, keys):
        sliced = _column(keys, max(len(keys), 1))
        assert all(sliced.candidates(key) == ["column"] for key in keys)


def _set_positions(bits):
    """Indices of the set bits of a bit array, in increasing order."""
    return [bit for bit in range(8 * len(bits)) if bits[bit >> 3] >> (bit & 7) & 1]


class TestColumnBytes:
    """A column read out as a plain bit array (the checkpoint's form)."""

    def test_bytes_hold_exactly_the_added_positions(self):
        keys = [b"bit-%d" % i for i in range(20)]
        sliced = BitSlicedBloomArray(num_bits=256, num_hashes=4, max_incarnations=1)
        sliced.append_keys([as_digest(key).clam_words() for key in keys], len(keys), 0)
        bits, _item_count = sliced.column_bytes(0)
        assert bits == reference_column(keys, 4, 256)
        assert _set_positions(bits)  # the reference is not vacuous

    def test_bit_array_padded_to_whole_words(self):
        for num_bits in (1, 7, 8, 63, 64, 65, 100):
            sliced = BitSlicedBloomArray(num_bits, num_hashes=2, max_incarnations=1)
            sliced.append_keys([as_digest(b"x").clam_words()], 1, 0)
            bits, _item_count = sliced.column_bytes(0)
            assert len(bits) % 8 == 0
            assert len(bits) * 8 >= num_bits
            assert _set_positions(bits) and all(pos < num_bits for pos in _set_positions(bits))

    def test_digest_keys_equal_byte_keys(self):
        keys = [b"dk-%d" % i for i in range(50)]
        plain = BitSlicedBloomArray(num_bits=512, num_hashes=5, max_incarnations=1)
        via_digest = BitSlicedBloomArray(num_bits=512, num_hashes=5, max_incarnations=1)
        plain.append_keys([as_digest(key).clam_words() for key in keys], 50, 0)
        via_digest.append_keys([KeyDigest(key).clam_words() for key in keys], 50, 0)
        assert plain.column_bytes(0) == via_digest.column_bytes(0)
        assert all(plain.candidates(KeyDigest(key)) == [0] for key in keys)
        assert all(via_digest.candidates(key) == [0] for key in keys)
