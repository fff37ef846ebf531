"""Tests for the bit-sliced ring of per-incarnation Bloom filters (§5.1.3)."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from bloom_reference import reference_column, reference_holds
from repro.core import BitSlicedBloomArray
from repro.core.hashing import as_digest


#: Window sizes ``k``: one byte per slice up to 8 columns, then 2, 4 and 8
#: bytes read as native ints, and more than 64 columns read an int at a time.
WINDOWS = (1, 3, 8, 9, 16, 17, 64, 65, 70)
#: Filter shapes ``(m, h)``: a power-of-two ``m`` (positions walked, the
#: column written as one slice per key, folded from an odd and an even number
#: of tiles) and another ``m`` (positions listed).
GEOMETRIES = ((512, 5), (256, 4), (300, 3))


def _append(sliced, keys, incarnation_id):
    """Append the column of ``keys`` as a checkpoint restores one."""
    bits = reference_column(keys, sliced.num_hashes, sliced.num_bits)
    sliced.append_column(bits, len(keys), incarnation_id)


class TestBitSlicedBloomArray:
    def test_candidates_empty_when_no_incarnations(self):
        sliced = BitSlicedBloomArray(num_bits=256, num_hashes=4, max_incarnations=4)
        assert sliced.candidates(b"key") == []

    def test_reports_incarnation_containing_key(self):
        sliced = BitSlicedBloomArray(num_bits=256, num_hashes=4, max_incarnations=4)
        _append(sliced, [b"a", b"b"], incarnation_id=0)
        _append(sliced, [b"c"], incarnation_id=1)
        assert 0 in sliced.candidates(b"a")
        assert 1 in sliced.candidates(b"c")

    def test_no_false_negatives_across_many_incarnations(self):
        sliced = BitSlicedBloomArray(num_bits=2048, num_hashes=6, max_incarnations=8)
        keys_by_incarnation = {}
        for incarnation in range(8):
            keys = [b"inc%d-key%d" % (incarnation, i) for i in range(50)]
            keys_by_incarnation[incarnation] = keys
            _append(sliced, keys, incarnation)
        for incarnation, keys in keys_by_incarnation.items():
            for key in keys:
                assert incarnation in sliced.candidates(key)

    def test_candidates_ordered_newest_first(self):
        sliced = BitSlicedBloomArray(num_bits=256, num_hashes=4, max_incarnations=4)
        _append(sliced, [b"dup"], incarnation_id=10)
        _append(sliced, [b"dup"], incarnation_id=11)
        candidates = sliced.candidates(b"dup")
        assert candidates[0] == 11
        assert candidates[1] == 10

    def test_eviction_removes_oldest(self):
        sliced = BitSlicedBloomArray(num_bits=256, num_hashes=4, max_incarnations=2)
        _append(sliced, [b"old"], incarnation_id=0)
        _append(sliced, [b"new"], incarnation_id=1)
        evicted = sliced.evict_oldest()
        assert evicted == 0
        assert sliced.candidates(b"old") == [] or 0 not in sliced.candidates(b"old")
        assert 1 in sliced.candidates(b"new")

    def test_evict_on_empty_returns_none(self):
        sliced = BitSlicedBloomArray(num_bits=64, num_hashes=2, max_incarnations=2)
        assert sliced.evict_oldest() is None

    def test_append_beyond_capacity_rejected(self):
        sliced = BitSlicedBloomArray(num_bits=64, num_hashes=2, max_incarnations=1)
        _append(sliced, [b"a"], 0)
        with pytest.raises(RuntimeError):
            _append(sliced, [b"b"], 1)

    @pytest.mark.parametrize("length", [0, 8, 15, 17, 24])
    def test_a_bit_array_of_the_wrong_length_is_refused(self, length):
        """``num_bits = 100`` is 16 bytes as a bit array: any other length is
        refused before a column is taken."""
        sliced = BitSlicedBloomArray(num_bits=100, num_hashes=2, max_incarnations=2)
        with pytest.raises(ValueError, match="num_bits=100"):
            sliced.append_column(bytes(length), 0, "wrong")
        assert sliced.live_count == 0
        sliced.append_column(bytes(16), 0, "right")
        assert sliced.live_count == 1

    def test_item_counts_follow_the_columns_in_use_not_the_window(self):
        """A device-derived window runs to hundreds of thousands of columns;
        the array keeps item counts only for the columns its slices hold."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sliced = BitSlicedBloomArray(2048, 11, 524_288)
            for incarnation in range(5):
                words = [as_digest(b"k%d" % incarnation).clam_words()]
                sliced.append_keys(words, incarnation + 1, incarnation)
            sliced.evict_oldest()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 100_000, held
        assert [sliced.column_bytes(live)[1] for live in range(1, 5)] == [2, 3, 4, 5]

    @pytest.mark.parametrize("k", WINDOWS)
    @pytest.mark.parametrize("num_bits, num_hashes", GEOMETRIES)
    def test_ring_of_k_columns_survives_many_generations(self, k, num_bits, num_hashes):
        """Cycling far more incarnations than the window holds stays correct,
        every slice stays within the ring's ``k`` columns, and the filter
        read out of a column (a reused one past the first lap) equals the
        reference bit array of its keys, whichever writer put it in, with the
        ``item_count`` it was given."""
        sliced = BitSlicedBloomArray(num_bits, num_hashes, max_incarnations=k)
        appended = {}
        for generation in range(max(40, k + 12)):
            if sliced.live_count >= k:
                evicted = sliced.evict_oldest()
                assert evicted == generation - k
                del appended[evicted]
            # 20-31 adds of 20 distinct keys: item_count is the filter's, not
            # the keys'.
            keys = [b"gen%d-%d" % (generation, i % 20) for i in range(20 + generation % 12)]
            reference = reference_column(keys, num_hashes, num_bits)
            appended[generation] = (reference, len(keys))
            if generation % 2:
                sliced.append_column(reference, len(keys), generation)
            else:
                words = [as_digest(key).clam_words() for key in keys]
                sliced.append_keys(words, len(keys), generation)
            # Every live generation must still be discoverable, and read out.
            for live, expected in appended.items():
                for i in range(20):
                    assert live in sliced.candidates(b"gen%d-%d" % (live, i))
                assert sliced.column_bytes(live) == expected
            assert all(0 <= sliced._view[position] < 2**k for position in range(num_bits))
        with pytest.raises(KeyError):
            sliced.column_bytes(0)

    @pytest.mark.parametrize("k, width", [(8, 1), (16, 2), (64, 8), (70, 16)])
    @pytest.mark.parametrize("num_bits, num_hashes", [(2048, 8), (300, 3)])
    def test_columns_read_out_and_appended_again_rebuild_the_slab(
        self, k, width, num_bits, num_hashes
    ):
        """Every column read out as bytes and appended, in the same order, to
        a fresh array gives back the very slab and item counts, at slices of
        1, 2, 8 and 16 bytes."""
        source = BitSlicedBloomArray(num_bits, num_hashes, max_incarnations=k)
        for column in range(k):
            keys = [b"c%d-%d" % (column, i) for i in range(5 + column % 13)]
            source.append_keys([as_digest(key).clam_words() for key in keys], len(keys), column)
        rebuilt = BitSlicedBloomArray(num_bits, num_hashes, max_incarnations=k)
        for column in range(k):
            rebuilt.append_column(*source.column_bytes(column), column)
        assert source._width == rebuilt._width == width
        assert rebuilt._slices == source._slices
        assert rebuilt._item_counts == source._item_counts

    @pytest.mark.parametrize("num_bits, num_hashes", GEOMETRIES)
    def test_a_column_written_from_words_equals_the_filter_of_those_keys(
        self, num_bits, num_hashes
    ):
        """The flush's column writer sets each key's reference positions,
        walked (power-of-two ``m``) or listed (any other ``m``), across ring
        wraps, and keeps the ``item_count`` it is given beside the column."""
        sliced = BitSlicedBloomArray(num_bits, num_hashes, max_incarnations=3)
        appended = {}
        for generation in range(7):
            if sliced.live_count >= 3:
                del appended[sliced.evict_oldest()]
            keys = [b"g%d-%d" % (generation, i % 25) for i in range(30 + generation)]
            appended[generation] = (reference_column(keys, num_hashes, num_bits), len(keys))
            key_words = [as_digest(key).clam_words() for key in keys]
            sliced.append_keys(key_words, len(keys), generation)
            for live, expected in appended.items():
                assert sliced.column_bytes(live) == expected
        with pytest.raises(RuntimeError):
            sliced.append_keys([], 0, "one too many")

    @pytest.mark.parametrize("k", WINDOWS)
    @pytest.mark.parametrize("num_bits, num_hashes", GEOMETRIES)
    def test_agrees_with_individual_filters(self, k, num_bits, num_hashes):
        """The sliced organisation must return exactly the incarnations whose
        individual Bloom filter matches (same bits, same hashes), newest first,
        with the ring wrapped once so some columns were cleared and reused."""
        filters = {}
        sliced = BitSlicedBloomArray(num_bits, num_hashes, max_incarnations=k)
        for incarnation in range(k + k // 2 + 1):
            if sliced.live_count >= k:
                del filters[sliced.evict_oldest()]
            keys = [b"i%d-%d" % (incarnation, i) for i in range(12)]
            filters[incarnation] = reference_column(keys, num_hashes, num_bits)
            words = [as_digest(key).clam_words() for key in keys]
            sliced.append_keys(words, len(keys), incarnation)
        probe_keys = [b"i%d-%d" % (i % (2 * k), i % 12) for i in range(120)]
        probe_keys += [b"absent-%d" % i for i in range(120)]
        for key in probe_keys:
            expected = [
                identifier
                for identifier, bits in filters.items()
                if reference_holds(bits, key, num_hashes, num_bits)
            ]
            assert sliced.candidates(key) == expected[::-1]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=30, unique=True))
    def test_property_added_keys_always_candidates(self, keys):
        sliced = BitSlicedBloomArray(num_bits=512, num_hashes=4, max_incarnations=3)
        _append(sliced, keys, incarnation_id=99)
        for key in keys:
            assert 99 in sliced.candidates(key)
