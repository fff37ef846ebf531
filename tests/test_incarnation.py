"""Tests for incarnation page layout (serialisation, page-addressed lookup)."""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import KeyTooLargeError, build_pages, search_page
from repro.core.hashing import as_digest, clear_digest_cache
from repro.core.incarnation import (
    IncarnationHandle,
    iter_page_entries,
    page_index_for_key,
    page_overflowed,
)


class TestPageIndexForKey:
    def test_deterministic_and_in_range(self):
        for i in range(100):
            index = page_index_for_key(b"key-%d" % i, 16)
            assert 0 <= index < 16
            assert index == page_index_for_key(b"key-%d" % i, 16)

    def test_invalid_page_count_rejected(self):
        with pytest.raises(ValueError):
            page_index_for_key(b"key", 0)


class TestBuildAndSearchPages:
    def test_round_trip_every_key_found_on_its_probe_path(self):
        items = {b"key-%d" % i: b"value-%d" % i for i in range(100)}
        pages = build_pages(items, num_pages=8, page_size=512)
        assert len(pages) == 8
        for key, value in items.items():
            found = self._probe(pages, key)
            assert found == value

    @staticmethod
    def _probe(pages, key):
        """Follow the same probe sequence the super table lookup uses."""
        start = page_index_for_key(key, len(pages))
        for offset in range(len(pages)):
            image = pages[(start + offset) % len(pages)]
            value, overflowed = search_page(image, key)
            if value is not None:
                return value
            if not overflowed:
                return None
        return None

    def test_absent_key_not_found(self):
        items = {b"key-%d" % i: b"v" for i in range(50)}
        pages = build_pages(items, num_pages=8, page_size=512)
        assert self._probe(pages, b"absent") is None

    def test_pages_respect_size_limit(self):
        items = {b"key-%d" % i: b"v" * 20 for i in range(200)}
        pages = build_pages(items, num_pages=16, page_size=512)
        assert all(len(page) <= 512 for page in pages)

    def test_empty_items_produce_empty_pages(self):
        pages = build_pages({}, num_pages=4, page_size=256)
        assert len(pages) == 4
        assert all(list(iter_page_entries(page)) == [] for page in pages)

    def test_overflow_flag_set_when_bucket_spills(self):
        # Force spilling by using a single tiny page size and many items.
        items = {b"key-%d" % i: b"v" * 30 for i in range(40)}
        pages = build_pages(items, num_pages=8, page_size=256)
        assert any(page_overflowed(page) for page in pages)
        # And despite spilling, everything remains findable.
        for key, value in items.items():
            assert self._probe(pages, key) == value

    def test_item_too_large_for_page_rejected(self):
        with pytest.raises(KeyTooLargeError):
            build_pages({b"k": b"v" * 1024}, num_pages=4, page_size=256)

    def test_items_exceeding_total_capacity_rejected(self):
        items = {b"key-%d" % i: b"v" * 100 for i in range(100)}
        with pytest.raises(KeyTooLargeError):
            build_pages(items, num_pages=2, page_size=256)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            build_pages({b"k": b"v"}, num_pages=0, page_size=256)
        with pytest.raises(ValueError):
            build_pages({b"k": b"v"}, num_pages=4, page_size=4)

    def test_iter_page_entries_round_trip(self):
        items = {b"alpha": b"1", b"beta": b"22", b"gamma": b"333"}
        pages = build_pages(items, num_pages=1, page_size=512)
        assert dict(iter_page_entries(pages[0])) == items

    def test_search_empty_page(self):
        value, overflowed = search_page(b"", b"key")
        assert value is None
        assert overflowed is False

    @settings(max_examples=30, deadline=None)
    @given(
        st.dictionaries(
            st.binary(min_size=1, max_size=20),
            st.binary(min_size=0, max_size=20),
            min_size=0,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=16),
    )
    def test_property_round_trip(self, items, num_pages):
        pages = build_pages(items, num_pages=num_pages, page_size=2048)
        for key, value in items.items():
            assert self._probe(pages, key) == value


def _reference_build_pages(items, num_pages, page_size):
    """``build_pages`` as it was before it became one pass over the items
    (three passes: bucket by hash-assigned page, place with wrap-around
    overflow, encode).  Kept as the layout's reference: the page images on
    flash must not move."""
    page_header = struct.Struct("<HB")
    entry_header = struct.Struct("<HH")

    def entry_size(key, value):
        return entry_header.size + len(key) + len(value)

    def encode_entry(key, value):
        if len(key) > 0xFFFF or len(value) > 0xFFFF:
            raise KeyTooLargeError("keys and values must fit in 16-bit length fields")
        return entry_header.pack(len(key), len(value)) + key + value

    if num_pages <= 0:
        raise ValueError("num_pages must be positive")
    if page_size <= page_header.size + entry_header.size:
        raise ValueError("page_size too small to hold any entry")
    buckets = [[] for _ in range(num_pages)]
    for key, value in items.items():
        size = entry_size(key, value)
        if size + page_header.size > page_size:
            raise KeyTooLargeError(
                f"entry of {size} bytes cannot fit in a {page_size}-byte page"
            )
        buckets[page_index_for_key(key, num_pages)].append((key, value))
    page_entries = [[] for _ in range(num_pages)]
    page_space = [page_size - page_header.size] * num_pages
    overflowed = [False] * num_pages
    for bucket_index, bucket in enumerate(buckets):
        for key, value in bucket:
            size = entry_size(key, value)
            placed = False
            for probe in range(num_pages):
                target = (bucket_index + probe) % num_pages
                if page_space[target] >= size:
                    page_entries[target].append((key, value))
                    page_space[target] -= size
                    placed = True
                    for passed in range(probe):
                        overflowed[(bucket_index + passed) % num_pages] = True
                    break
            if not placed:
                raise KeyTooLargeError(
                    "incarnation overflow: items do not fit in the configured pages; "
                    "reduce buffer utilisation or increase page count"
                )
    pages = []
    for index in range(num_pages):
        body = b"".join(encode_entry(key, value) for key, value in page_entries[index])
        pages.append(
            page_header.pack(len(page_entries[index]), 1 if overflowed[index] else 0) + body
        )
    return pages


@pytest.mark.parametrize("warm", [False, True])
class TestBuildPagesMatchesReference:
    """The one-pass ``build_pages``, which reads each key's page word from the
    digest cache, writes the images the three-pass one did by hashing raw
    bytes — whether the cache has never met the keys (``warm=False``) or
    already holds their digests with every word filled, as it does for a
    buffer flushed in production (``warm=True``)."""

    def _outcome(self, build, *args):
        try:
            return build(*args)
        except KeyTooLargeError as error:
            return ("KeyTooLargeError", str(error))

    def _build_pages(self, warm, items, num_pages, page_size):
        clear_digest_cache()
        if warm:
            for key in items:
                as_digest(key).clam_words()
        return self._outcome(build_pages, items, num_pages, page_size)

    def test_random_item_sets_including_wrap_around_overflow(self, warm):
        rng = random.Random(20100428)
        wrapped = spilled = rejected = 0
        for _ in range(300):
            num_pages = rng.randint(1, 12)
            page_size = rng.choice([64, 96, 128, 256, 512])
            # From nearly empty to just past full, so that entries spill to the
            # next page, wrap past the last page, and sometimes do not fit.
            fill = rng.uniform(0.05, 1.1)
            items = {}
            used = 0
            while used < fill * num_pages * (page_size - 3):
                key = rng.randbytes(rng.randint(1, 24))
                value = rng.randbytes(rng.randint(0, 40))
                items[key] = value
                used += 4 + len(key) + len(value)
            expected = self._outcome(_reference_build_pages, items, num_pages, page_size)
            assert self._build_pages(warm, items, num_pages, page_size) == expected
            if isinstance(expected, tuple):
                rejected += 1
            else:
                spilled += any(page_overflowed(page) for page in expected)
                wrapped += num_pages > 1 and page_overflowed(expected[-1])
        # The generator reaches every branch it is meant to.
        assert spilled > 50 and wrapped > 10 and rejected > 10

    def test_entry_larger_than_a_page(self, warm):
        items = {b"small": b"v", b"big": b"x" * 600}
        expected = self._outcome(_reference_build_pages, items, 4, 512)
        assert expected[0] == "KeyTooLargeError" and "cannot fit" in expected[1]
        assert self._build_pages(warm, items, 4, 512) == expected

    @pytest.mark.parametrize("items", [{b"k" * 0x10000: b"v"}, {b"k": b"v" * 0x10000}])
    def test_length_beyond_sixteen_bits(self, warm, items):
        page_size = 1 << 17  # large enough that only the length fields object
        expected = self._outcome(_reference_build_pages, items, 2, page_size)
        assert expected[0] == "KeyTooLargeError" and "16-bit" in expected[1]
        assert self._build_pages(warm, items, 2, page_size) == expected


class TestIncarnationHandle:
    def test_fields(self):
        handle = IncarnationHandle(incarnation_id=3, address=128, num_pages=4, item_count=57)
        assert handle.incarnation_id == 3
        assert handle.address == 128
        assert handle.num_pages == 4
        assert handle.item_count == 57
