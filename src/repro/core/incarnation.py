"""On-flash incarnations: immutable hash tables produced by buffer flushes.

When a super table's in-memory buffer fills, its contents are written to
flash sequentially as a new *incarnation* (§5.1).  An incarnation is itself a
small hash table: keys are assigned to pages by hash, so a later lookup can
read just the one page that could contain the key instead of the whole
incarnation.  Pages that overflow spill into the following page and set a
continuation flag, which is why a small fraction of lookups in Table 2 of the
paper need two or three flash reads.

This module handles only the *layout* (serialising items into page images and
searching a page image for a key); placement of those pages on a device is
the responsibility of :mod:`repro.core.storage`.  Nothing outside it knows the
bytes of a page.

Page image, format 2 (columnar; ``PAGE_FORMAT`` is stamped into a durable
file's superblock)::

    offset 0              <H  count      entries on this page
    offset 2              <B  flags      bit 0  overflow: entries homed here (or passing
                                                through) spilled onto the next page
                                         bit 1  uniform: every entry has the first
                                                entry's key length and value length
                                         bit 7  columnar: always set
    offset 3              count x <HH   key length, value length, entry by entry
    offset 3 + 4 * count  the keys, back to back, in entry order
    then                  the values, back to back, in entry order

An entry costs ``4 + len(key) + len(value)`` bytes and the header 3, exactly
what format 1 (``[header][<HH lengths, key, value] ...``) spent on it, so the
page count of an incarnation, the page each key lands on and the overflow
flags — everything the simulated device is charged for — are those of format
1; only the order of the bytes inside an image differs.  Format 1 wrote flags
0 or 1: an image without bit 7 is refused with :class:`PageFormatError`
rather than misread.

Why columns: on a uniform page (what a fingerprint index always writes) the
keys form one array of ``count`` fixed-width cells, so one ``bytes.find`` over
that region replaces a walk with a C call or two per entry, at any entry
count.  A match is an entry only when it starts on a cell boundary —
``(found - keys_start) % key_len == 0`` — because the bytes of two adjacent
keys can spell the wanted key across their seam; such a straddling match is
skipped and the search resumes one byte later.  A key of any other length
cannot be on the page at all.  Entry ``index`` then has its value at
``keys_end + index * value_len``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, NoReturn, Optional, Sequence, Tuple

from repro.core.errors import KeyTooLargeError, PageFormatError
from repro.core.hashing import PAGE_SEED, PAGE_WORD, KeyLike, hash_key

#: The page image layout this module writes and reads (see the module docstring).
PAGE_FORMAT = 2

_PAGE_HEADER = struct.Struct("<HB")  # entry count, flags
_ENTRY_HEADER = struct.Struct("<HH")  # key length, value length

_OVERFLOW = 0x01
_UNIFORM = 0x02
_COLUMNAR = 0x80


def _refuse_row_image(flags: int) -> NoReturn:
    raise PageFormatError(
        f"page image with flags {flags:#04x} is not columnar: "
        f"only page format {PAGE_FORMAT} is read (format 1 wrote flags 0 or 1)"
    )


def _page_header(page_image: bytes) -> Tuple[int, int]:
    """``(count, flags)`` of a non-empty image; refuses one that is not columnar."""
    count, flags = _PAGE_HEADER.unpack_from(page_image, 0)
    if flags < _COLUMNAR:
        _refuse_row_image(flags)
    return count, flags


def page_index_for_key(key: KeyLike, num_pages: int) -> int:
    """The page a key hashes to within an incarnation of ``num_pages`` pages.

    The reference definition of page placement — ``fnv1a_64(key bytes,
    PAGE_SEED) % num_pages`` — that :func:`build_pages` and the super table's
    lookup, which read the same word from the key's digest, are tested against.
    """
    if num_pages <= 0:
        raise ValueError("num_pages must be positive")
    return hash_key(key, seed=PAGE_SEED) % num_pages


def required_pages(items: Dict[bytes, bytes], page_size: int, fill_factor: float = 0.7) -> int:
    """Minimum page count that comfortably holds ``items``.

    Used by the super table to grow an incarnation beyond its nominal size
    when the actual serialised entries are larger than the configuration's
    ``entry_size_bytes`` estimate (e.g. 20-byte SHA-1 keys with 8-byte
    values).  ``fill_factor`` leaves slack so hash-skewed pages rarely spill.
    """
    if page_size <= _PAGE_HEADER.size + _ENTRY_HEADER.size:
        raise ValueError("page_size too small to hold any entry")
    if not 0.0 < fill_factor <= 1.0:
        raise ValueError("fill_factor must be in (0, 1]")
    total = _ENTRY_HEADER.size * len(items) + sum(map(len, items)) + sum(map(len, items.values()))
    usable_per_page = (page_size - _PAGE_HEADER.size) * fill_factor
    return max(1, math.ceil(total / usable_per_page))


def build_pages(
    items: Dict[bytes, bytes], key_words: Sequence[Sequence[int]], num_pages: int, page_size: int
) -> List[bytes]:
    """Serialise ``items`` into ``num_pages`` page images of at most ``page_size`` bytes.

    Keys are placed on their hash-assigned page; when a page is full the
    remaining entries spill onto subsequent pages (wrapping around), and every
    page that pushed entries onward has its overflow flag set so lookups know
    to continue.

    ``key_words[i]`` are the CLAM words of the ``i``-th key of ``items``
    (entries past the last item are not read): a flush hands over the ones
    its buffer kept, so each key's page word is read without a lookup or a
    hash.
    """
    if num_pages <= 0:
        raise ValueError("num_pages must be positive")
    if page_size <= _PAGE_HEADER.size + _ENTRY_HEADER.size:
        raise ValueError("page_size too small to hold any entry")
    if len(key_words) < len(items):
        raise ValueError("every item needs its words")

    # Each entry is sized once and grouped under its home page as ``(lengths,
    # key, value, size)``; ``lengths`` is the entry's ``<HH`` pair as the one
    # 32-bit little-endian word with the same bytes.
    page_capacity = page_size - _PAGE_HEADER.size
    header_size = _ENTRY_HEADER.size
    buckets: List[List[Tuple[int, bytes, bytes, int]]] = [[] for _ in range(num_pages)]
    for (key, value), words in zip(items.items(), key_words):
        key_len = len(key)
        value_len = len(value)
        size = header_size + key_len + value_len
        if size > page_capacity:
            raise KeyTooLargeError(f"entry of {size} bytes cannot fit in a {page_size}-byte page")
        if key_len | value_len > 0xFFFF:
            raise KeyTooLargeError("keys and values must fit in 16-bit length fields")
        buckets[words[PAGE_WORD] % num_pages].append((key_len | value_len << 16, key, value, size))

    # Assign entries to physical pages, home page by home page, with
    # wrap-around overflow.  A page collects its entries flat — lengths, key,
    # value, size, lengths, key, ... — so each of its columns is one strided
    # slice when the image is written.
    page_columns: List[list] = [[] for _ in range(num_pages)]
    page_space = [page_capacity] * num_pages
    overflowed = [False] * num_pages
    for home, bucket in enumerate(buckets):
        for entry in bucket:
            entry_size = entry[3]
            target = home
            passed = 0
            while page_space[target] < entry_size:
                passed += 1
                if passed == num_pages:
                    raise KeyTooLargeError(
                        "incarnation overflow: items do not fit in the configured pages; "
                        "reduce buffer utilisation or increase page count"
                    )
                # Every page between the home page and the landing page
                # (exclusive) must signal overflow so lookups keep probing.
                overflowed[target] = True
                target = (home + passed) % num_pages
            page_columns[target] += entry
            page_space[target] -= entry_size

    # Written by index, not appended: one C call fewer per page.
    pages: List[bytes] = [b""] * num_pages
    pack_header = _PAGE_HEADER.pack
    join = b"".join
    for page, (columns, spilled) in enumerate(zip(page_columns, overflowed)):
        lengths = columns[0::4]
        count = len(lengths)
        flags = _COLUMNAR | spilled
        if count and lengths.count(lengths[0]) == count:
            flags |= _UNIFORM
            length_column = lengths[0].to_bytes(4, "little") * count
        else:
            length_column = struct.pack("<%dI" % count, *lengths)
        keys = join(columns[1::4])
        image = pack_header(count, flags) + length_column + keys + join(columns[2::4])
        if len(image) > page_size:  # pragma: no cover - guarded by space accounting
            raise KeyTooLargeError("serialised page exceeded page_size")
        pages[page] = image
    return pages


def iter_page_entries(page_image: bytes) -> Iterator[Tuple[bytes, bytes]]:
    """Iterate over the (key, value) entries stored in one page image."""
    if not page_image:
        return
    count, _flags = _page_header(page_image)
    key_at = _PAGE_HEADER.size + _ENTRY_HEADER.size * count
    lengths = list(_ENTRY_HEADER.iter_unpack(page_image[_PAGE_HEADER.size : key_at]))
    value_at = key_at + sum(key_len for key_len, _ in lengths)
    for key_len, value_len in lengths:
        yield page_image[key_at : key_at + key_len], page_image[value_at : value_at + value_len]
        key_at += key_len
        value_at += value_len


def page_overflowed(page_image: bytes) -> bool:
    """Whether the page pushed entries onto the following page."""
    if not page_image:
        return False
    _count, flags = _page_header(page_image)
    return bool(flags & _OVERFLOW)


def search_page(page_image: bytes, key: bytes) -> Tuple[Optional[bytes], bool]:
    """Search one page image for ``key``.

    Returns ``(value, overflowed)`` where ``value`` is ``None`` when the key is
    not on this page and ``overflowed`` tells the caller whether probing the
    next page could still find it.

    This sits on the lookup fast path (one call per flash page read).  A
    uniform page costs two C calls at any entry count — ``len`` and one
    ``find`` over the key column, see the module docstring for why the match
    must be aligned; the header fields are read by indexing, which is none.  A
    page of mixed lengths is walked once along its length column, comparing
    bytes only where the length matches.
    """
    if not page_image:
        return None, False
    flags = page_image[2]
    if flags < _COLUMNAR:
        _refuse_row_image(flags)
    overflowed = flags & _OVERFLOW == _OVERFLOW
    count = page_image[0] | page_image[1] << 8
    keys_start = 3 + 4 * count
    if flags & _UNIFORM:
        key_len = page_image[3] | page_image[4] << 8
        if len(key) != key_len:
            return None, overflowed
        value_len = page_image[5] | page_image[6] << 8
        keys_end = keys_start + count * key_len
        if not key_len:
            # Keys are unique within an incarnation: the empty key is alone here.
            return page_image[keys_end : keys_end + value_len], overflowed
        found = page_image.find(key, keys_start, keys_end)
        while found >= 0:
            offset = found - keys_start
            if not offset % key_len:
                value_at = keys_end + offset // key_len * value_len
                return page_image[value_at : value_at + value_len], overflowed
            found = page_image.find(key, found + 1, keys_end)
        return None, overflowed

    size = len(key)
    key_at = keys_start
    value_at = 0  # bytes of values before this entry's
    lengths = _ENTRY_HEADER.iter_unpack(page_image[3:keys_start])
    for key_len, value_len in lengths:
        if key_len == size and page_image.startswith(key, key_at):
            for key_len, _ in lengths:  # the values start where the keys end
                key_at += key_len
            value_at += key_at + size
            return page_image[value_at : value_at + value_len], overflowed
        key_at += key_len
        value_at += value_len
    return None, overflowed


@dataclass(frozen=True)
class IncarnationHandle:
    """In-memory metadata describing one on-flash incarnation.

    Attributes
    ----------
    incarnation_id:
        Monotonically increasing identifier within a super table (larger is
        newer).
    address:
        Device page index of the incarnation's first page (assigned by the
        incarnation store).
    num_pages:
        Number of device pages the incarnation occupies.
    item_count:
        Number of entries it holds (informational; used by eviction stats).
    """

    incarnation_id: int
    address: int
    num_pages: int
    item_count: int
