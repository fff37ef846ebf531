"""Tests for incarnation page layout (serialisation, page-addressed lookup)."""

import random
import struct
from collections import Counter

import pytest

from repro.core import KeyTooLargeError, PageFormatError, build_pages, search_page
from repro.core.hashing import as_digest, clear_digest_cache
from repro.core.incarnation import (
    IncarnationHandle,
    iter_page_entries,
    page_index_for_key,
    page_overflowed,
)

PAGE_HEADER = struct.Struct("<HB")  # count, flags — both formats
ENTRY_HEADER = struct.Struct("<HH")  # key length, value length — both formats
OVERFLOW, UNIFORM, COLUMNAR = 0x01, 0x02, 0x80


def _build(items, *args, **kwargs):
    """``build_pages`` handed each key's CLAM words, as a flush hands them over."""
    return build_pages(items, [as_digest(key).clam_words() for key in items], *args, **kwargs)


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
        pages = _build(items, num_pages=8, page_size=512)
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
        pages = _build(items, num_pages=8, page_size=512)
        assert self._probe(pages, b"absent") is None

    def test_pages_respect_size_limit(self):
        items = {b"key-%d" % i: b"v" * 20 for i in range(200)}
        pages = _build(items, num_pages=16, page_size=512)
        assert all(len(page) <= 512 for page in pages)

    def test_empty_items_produce_empty_pages(self):
        pages = _build({}, num_pages=4, page_size=256)
        assert len(pages) == 4
        assert all(list(iter_page_entries(page)) == [] for page in pages)

    def test_overflow_flag_set_when_bucket_spills(self):
        # Force spilling by using a single tiny page size and many items.
        items = {b"key-%d" % i: b"v" * 30 for i in range(40)}
        pages = _build(items, num_pages=8, page_size=256)
        assert any(page_overflowed(page) for page in pages)
        # And despite spilling, everything remains findable.
        for key, value in items.items():
            assert self._probe(pages, key) == value

    def test_item_too_large_for_page_rejected(self):
        with pytest.raises(KeyTooLargeError):
            _build({b"k": b"v" * 1024}, num_pages=4, page_size=256)

    def test_items_exceeding_total_capacity_rejected(self):
        items = {b"key-%d" % i: b"v" * 100 for i in range(100)}
        with pytest.raises(KeyTooLargeError):
            _build(items, num_pages=2, page_size=256)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            _build({b"k": b"v"}, num_pages=0, page_size=256)
        with pytest.raises(ValueError):
            _build({b"k": b"v"}, num_pages=4, page_size=4)

    def test_an_item_without_its_words_rejected(self):
        items = {b"a": b"1", b"b": b"2"}
        with pytest.raises(ValueError, match="words"):
            build_pages(items, [as_digest(b"a").clam_words()], num_pages=1, page_size=256)
        # Words past the last item (a buffer's deleted keys) are not read.
        extra = [as_digest(key).clam_words() for key in (b"a", b"b", b"gone")]
        assert build_pages(items, extra, 1, 256) == _build(items, 1, 256)

    def test_iter_page_entries_round_trip(self):
        items = {b"alpha": b"1", b"beta": b"22", b"gamma": b"333"}
        pages = _build(items, num_pages=1, page_size=512)
        assert dict(iter_page_entries(pages[0])) == items

    def test_search_empty_page(self):
        value, overflowed = search_page(b"", b"key")
        assert value is None
        assert overflowed is False

    def test_search_refuses_to_guess_at_a_straddling_match(self):
        """On a uniform page the key column is one byte string, so two
        neighbours can spell a third key across their seam: the match must
        start on a cell boundary to count."""
        items = {b"aabb": b"one", b"aaxx": b"two", b"bbaa": b"six"}
        (page,) = _build(items, num_pages=1, page_size=256)
        assert page[2] == COLUMNAR | UNIFORM
        keys_start = 3 + 4 * len(items)
        assert page[keys_start : keys_start + 12] == b"aabbaaxxbbaa"  # insertion order
        # b"bbaa" is found first at +2 (aabb|aaxx), then where it is stored.
        assert page.find(b"bbaa", keys_start) == keys_start + 2
        assert search_page(page, b"bbaa") == (b"six", False)
        # Without its entry, b"bbaa" exists only across the seam: a miss.
        del items[b"bbaa"]
        (page,) = _build(items, num_pages=1, page_size=256)
        assert page.find(b"bbaa", 3 + 4 * len(items)) > 0
        assert search_page(page, b"bbaa") == (None, False)
        # A prefix, a suffix and an over-long superstring of stored keys miss.
        for absent in (b"aab", b"abb", b"aabba", b"aabbaaxx", b""):
            assert search_page(page, absent) == (None, False)

    def test_the_empty_key_and_empty_values(self):
        alone = _build({b"": b"nothing"}, num_pages=1, page_size=64)[0]
        assert alone[2] == COLUMNAR | UNIFORM
        assert search_page(alone, b"") == (b"nothing", False)
        assert search_page(alone, b"x") == (None, False)
        both_empty = _build({b"": b""}, num_pages=1, page_size=64)[0]
        assert search_page(both_empty, b"") == (b"", False)
        mixed = _build({b"ab": b"", b"": b"v", b"abc": b""}, num_pages=1, page_size=64)[0]
        assert mixed[2] == COLUMNAR
        assert search_page(mixed, b"") == (b"v", False)
        assert search_page(mixed, b"ab") == (b"", False)
        assert search_page(mixed, b"abc") == (b"", False)
        assert search_page(mixed, b"a") == (None, False)
        assert list(iter_page_entries(mixed)) == [(b"ab", b""), (b"", b"v"), (b"abc", b"")]

    def test_property_round_trip(self):
        """Seeded ``(seed, entries, key_len, value mode)`` draws, and what they
        reached: every count below is exact, so a generator that stops
        producing a regime fails here instead of passing quietly."""
        reached = Counter()
        for seed in range(4):
            for entries in (1, 9, 40, 150):
                for key_len in (None, 1, 8, 20):  # None: 0-24 bytes, mixed
                    for value_mode in ("fixed", "empty", "mixed"):
                        self._round_trip(seed, entries, key_len, value_mode, reached)
        assert reached == {
            "cases": 192,
            "rejected": 32,  # fragmentation: just enough bytes is not always enough pages
            "pages": 2067,
            "uniform_pages": 1521,
            "mixed_pages": 450,
            "empty_pages": 96,
            "overflowed_pages": 1175,
            "pages_full_to_the_last_byte": 1014,
            "entries": 6758,
            "entries_spilled": 1843,
            "entries_wrapped_past_the_last_page": 130,
            "entries_wrapped_two_pages_or_more": 115,
            "empty_keys": 14,
            "empty_values": 2791,
            "absent_of_the_page_length_on_uniform": 1520,
            "absent_of_another_length_on_uniform": 1521,
            "absent_on_mixed": 450,
        }

    def _round_trip(self, seed, entries, key_len, value_mode, reached):
        rng = random.Random(f"{seed}/{entries}/{key_len}/{value_mode}")
        items = {}
        while len(items) < (min(entries, 120) if key_len == 1 else entries):
            key = rng.randbytes(rng.randint(0, 24) if key_len is None else key_len)
            if value_mode == "fixed":
                items[key] = rng.randbytes(8)
            elif value_mode == "empty":
                items[key] = b""
            else:
                items[key] = rng.randbytes(rng.randint(0, 20))
        # Half the cases get a page that holds a whole number of the first
        # entry and just enough of them: full pages, long spills, wrap-around.
        sizes = [4 + len(key) + len(value) for key, value in items.items()]
        total = sum(sizes)
        if seed % 2:
            per_page = max(rng.randint(1, 6), -(-max(sizes) // sizes[0]))
            page_size = 3 + per_page * sizes[0]
            num_pages = -(-total // (page_size - 3))
        else:
            page_size = rng.choice([64, 128, 512, 2048])
            num_pages = max(1, round(total / (page_size - 3) / rng.uniform(0.3, 0.95)))
        reached["cases"] += 1
        try:
            pages = _build(items, num_pages=num_pages, page_size=page_size)
        except KeyTooLargeError:
            reached["rejected"] += 1
            return
        assert len(pages) == num_pages
        landed = {}
        for index, page in enumerate(pages):
            assert len(page) <= page_size
            count, flags = PAGE_HEADER.unpack_from(page)
            assert flags & COLUMNAR and page_overflowed(page) == bool(flags & OVERFLOW)
            stored = list(iter_page_entries(page))
            assert len(stored) == count
            shapes = {(len(key), len(value)) for key, value in stored}
            assert bool(flags & UNIFORM) == (len(shapes) == 1)
            reached["pages"] += 1
            kind = "uniform" if flags & UNIFORM else "mixed" if count else "empty"
            reached[kind + "_pages"] += 1
            reached["overflowed_pages"] += page_overflowed(page)
            reached["pages_full_to_the_last_byte"] += len(page) == page_size
            for key, value in stored:
                assert key not in landed
                landed[key] = index
                assert search_page(page, key) == (value, page_overflowed(page))
            miss = (None, page_overflowed(page))
            if flags & UNIFORM:
                ((width, _),) = shapes
                assert search_page(page, rng.randbytes(width + 1)) == miss
                reached["absent_of_another_length_on_uniform"] += 1
                if width:
                    absent = rng.randbytes(width)
                    while absent in items:
                        absent = rng.randbytes(width)
                    assert search_page(page, absent) == miss
                    reached["absent_of_the_page_length_on_uniform"] += 1
            elif count:
                assert search_page(page, rng.randbytes(25)) == miss
                reached["absent_on_mixed"] += 1
        assert len(landed) == len(items)
        for key, value in items.items():
            assert self._probe(pages, key) == value
            home = page_index_for_key(key, num_pages)
            distance = (landed[key] - home) % num_pages
            reached["entries"] += 1
            reached["entries_spilled"] += distance > 0
            reached["entries_wrapped_past_the_last_page"] += landed[key] < home
            reached["entries_wrapped_two_pages_or_more"] += landed[key] < home and distance >= 2
            reached["empty_keys"] += key == b""
            reached["empty_values"] += value == b""


def _entry_lengths(key, value):
    if len(key) > 0xFFFF or len(value) > 0xFFFF:
        raise KeyTooLargeError("keys and values must fit in 16-bit length fields")
    return ENTRY_HEADER.pack(len(key), len(value))


def _encode_page_v1(entries, overflowed):
    """The row-wise image of format 1: ``[header][<HH lengths, key, value] ...``."""
    body = b"".join(_entry_lengths(key, value) + key + value for key, value in entries)
    return PAGE_HEADER.pack(len(entries), 1 if overflowed else 0) + body


def _decode_page_v1(image):
    count, flag = PAGE_HEADER.unpack_from(image, 0)
    offset = PAGE_HEADER.size
    entries = []
    for _ in range(count):
        key_len, value_len = ENTRY_HEADER.unpack_from(image, offset)
        offset += ENTRY_HEADER.size
        key_end = offset + key_len
        entries.append((image[offset:key_end], image[key_end : key_end + value_len]))
        offset = key_end + value_len
    assert offset == len(image)
    return entries, bool(flag)


def _encode_page_v2(entries, overflowed):
    """The columnar image of format 2, one field at a time."""
    flags = COLUMNAR | (OVERFLOW if overflowed else 0)
    if len({(len(key), len(value)) for key, value in entries}) == 1:
        flags |= UNIFORM
    image = PAGE_HEADER.pack(len(entries), flags)
    for key, value in entries:
        image += _entry_lengths(key, value)
    for key, _value in entries:
        image += key
    for _key, value in entries:
        image += value
    return image


def _reference_build_pages(items, num_pages, page_size, encode_page=_encode_page_v2):
    """``build_pages`` as it was before it became one pass over the items
    (three passes: bucket by hash-assigned page, place with wrap-around
    overflow, encode).  Kept as the layout's reference: the first two passes
    are those of format 1 verbatim — which page holds which entry must not
    move — and the third encodes a placed page in either format."""
    page_header = struct.Struct("<HB")
    entry_header = struct.Struct("<HH")

    def entry_size(key, value):
        return entry_header.size + len(key) + len(value)

    if num_pages <= 0:
        raise ValueError("num_pages must be positive")
    if page_size <= page_header.size + entry_header.size:
        raise ValueError("page_size too small to hold any entry")
    buckets = [[] for _ in range(num_pages)]
    for key, value in items.items():
        size = entry_size(key, value)
        if size + page_header.size > page_size:
            raise KeyTooLargeError(f"entry of {size} bytes cannot fit in a {page_size}-byte page")
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
    return [encode_page(page_entries[index], overflowed[index]) for index in range(num_pages)]


def _seeded_item_sets(count=300):
    """``(items, num_pages, page_size)`` from nearly empty to just past full,
    so that entries spill to the next page, wrap past the last page, and
    sometimes do not fit."""
    rng = random.Random(20100428)
    for _ in range(count):
        num_pages = rng.randint(1, 12)
        page_size = rng.choice([64, 96, 128, 256, 512])
        fill = rng.uniform(0.05, 1.1)
        items = {}
        used = 0
        while used < fill * num_pages * (page_size - 3):
            key = rng.randbytes(rng.randint(1, 24))
            value = rng.randbytes(rng.randint(0, 40))
            items[key] = value
            used += 4 + len(key) + len(value)
        yield items, num_pages, page_size


class TestFormatTwoMovesNothingSimulated:
    """Page ``p`` of a format 2 incarnation holds the entries, in the order,
    with the overflow flag and in the number of bytes that format 1 gave page
    ``p``: the page count, the page a lookup reads and the bytes a flush
    writes — everything the simulated device charges for — are unchanged."""

    def test_same_entries_flag_and_byte_length_page_by_page(self):
        compared = spilled = rejected = 0
        for items, num_pages, page_size in _seeded_item_sets():
            try:
                row_wise = _reference_build_pages(items, num_pages, page_size, _encode_page_v1)
            except KeyTooLargeError as error:
                with pytest.raises(KeyTooLargeError, match=str(error)[:30]):
                    _build(items, num_pages, page_size)
                rejected += 1
                continue
            columnar = _build(items, num_pages, page_size)
            assert len(columnar) == len(row_wise) == num_pages
            for old, new in zip(row_wise, columnar):
                entries, overflowed = _decode_page_v1(old)
                assert list(iter_page_entries(new)) == entries
                assert page_overflowed(new) == overflowed
                assert len(new) == len(old)
                compared += 1
                spilled += overflowed
        assert (compared, spilled, rejected) == (1502, 364, 64)

    def test_a_row_wise_image_is_refused_not_misread(self):
        entries = [(b"key-one", b"1"), (b"key-two", b"2")]
        for overflowed in (False, True):
            image = _encode_page_v1(entries, overflowed)
            with pytest.raises(PageFormatError, match="not columnar"):
                search_page(image, b"key-one")
            with pytest.raises(PageFormatError, match="page format 2"):
                list(iter_page_entries(image))
            with pytest.raises(PageFormatError):
                page_overflowed(image)


@pytest.mark.parametrize("warm", [False, True])
class TestBuildPagesMatchesReference:
    """The one-pass ``build_pages``, which reads each key's page word from the
    words handed with it, writes the images the three-pass one does by
    hashing raw bytes — whether the digest cache has never met the keys
    (``warm=False``) or already holds their digests with every word filled
    (``warm=True``)."""

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
        return self._outcome(_build, items, num_pages, page_size)

    def test_random_item_sets_including_wrap_around_overflow(self, warm):
        wrapped = spilled = rejected = 0
        for items, num_pages, page_size in _seeded_item_sets():
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
