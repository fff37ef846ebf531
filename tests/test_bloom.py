"""Tests for the per-incarnation Bloom filter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BloomFilter, optimal_num_hashes


class TestHelpers:
    def test_optimal_num_hashes(self):
        # m/n = 16 bits per item -> about 11 hash functions.
        assert optimal_num_hashes(16.0) == 11
        assert optimal_num_hashes(1.0) == 1

    def test_optimal_num_hashes_rejects_non_positive(self):
        with pytest.raises(ValueError):
            optimal_num_hashes(0)


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter.for_capacity(100)
        keys = [b"key-%d" % i for i in range(100)]
        bloom.update(keys)
        assert all(key in bloom for key in keys)

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter.for_capacity(10)
        assert b"anything" not in bloom

    def test_false_positive_rate_is_low_when_properly_sized(self):
        bloom = BloomFilter.for_capacity(500, bits_per_item=16)
        bloom.update(b"member-%d" % i for i in range(500))
        false_positives = sum(1 for i in range(5000) if b"absent-%d" % i in bloom)
        assert false_positives / 5000 < 0.01

    def test_item_count(self):
        bloom = BloomFilter.for_capacity(10)
        bloom.add(b"a")
        bloom.add(b"b")
        assert bloom.item_count == 2

    def test_fill_fraction_grows(self):
        bloom = BloomFilter.for_capacity(100)
        before = bloom.fill_fraction()
        bloom.update(b"k-%d" % i for i in range(100))
        assert bloom.fill_fraction() > before

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(num_bits=0, num_hashes=3)
        with pytest.raises(ValueError):
            BloomFilter(num_bits=8, num_hashes=0)
        with pytest.raises(ValueError):
            BloomFilter.for_capacity(0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=64, unique=True))
    def test_property_every_added_key_is_reported_present(self, keys):
        bloom = BloomFilter.for_capacity(max(len(keys), 1))
        bloom.update(keys)
        assert all(key in bloom for key in keys)


def _set_positions(bloom):
    """Indices of the set bits of the filter's bit array, in increasing order."""
    data = bloom.to_bytes()
    return [bit for bit in range(8 * len(data)) if data[bit >> 3] >> (bit & 7) & 1]


class TestBitsetStorage:
    """The bytearray bitset introduced by the hash-once/perf PR."""

    def test_bytes_hold_exactly_the_added_positions(self):
        bloom = BloomFilter(num_bits=256, num_hashes=4)
        expected = set()
        for i in range(20):
            key = b"bit-%d" % i
            expected.update(bloom.bit_positions(key))
            bloom.add(key)
        assert _set_positions(bloom) == sorted(expected)

    def test_empty_filter_has_no_set_bits(self):
        assert _set_positions(BloomFilter(64, 2)) == []

    def test_fill_fraction_is_exact_popcount(self):
        bloom = BloomFilter(num_bits=100, num_hashes=3)
        bloom.update(b"fill-%d" % i for i in range(40))
        ones = len(_set_positions(bloom))
        assert bloom.fill_fraction() == ones / 100

    def test_bit_storage_padded_to_whole_words(self):
        for num_bits in (1, 7, 8, 63, 64, 65, 100):
            bloom = BloomFilter(num_bits=num_bits, num_hashes=2)
            assert len(bloom._bits) % 8 == 0
            assert len(bloom._bits) * 8 >= num_bits
            bloom.add(b"x")
            assert all(pos < num_bits for pos in _set_positions(bloom))

    def test_digest_keys_equal_byte_keys(self):
        from repro.core.hashing import KeyDigest

        plain = BloomFilter(num_bits=512, num_hashes=5)
        via_digest = BloomFilter(num_bits=512, num_hashes=5)
        keys = [b"dk-%d" % i for i in range(50)]
        plain.update(keys)
        via_digest.update(KeyDigest(key) for key in keys)
        assert plain._bits == via_digest._bits
        assert all(KeyDigest(key) in plain for key in keys)
        assert all(key in via_digest for key in keys)
