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
the responsibility of :mod:`repro.core.storage`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.errors import KeyTooLargeError
from repro.core.hashing import PAGE_SEED, PAGE_WORD, KeyLike, as_digest, hash_key

_PAGE_HEADER = struct.Struct("<HB")  # entry count, overflow flag
_ENTRY_HEADER = struct.Struct("<HH")  # key length, value length


def page_index_for_key(key: KeyLike, num_pages: int) -> int:
    """The page a key hashes to within an incarnation of ``num_pages`` pages.

    The reference definition of page placement — ``fnv1a_64(key bytes,
    PAGE_SEED) % num_pages`` — that :func:`build_pages` and the super table's
    lookup, which read the same word from the key's digest, are tested against.
    """
    if num_pages <= 0:
        raise ValueError("num_pages must be positive")
    return hash_key(key, seed=PAGE_SEED) % num_pages


def required_pages(
    items: Dict[bytes, bytes], page_size: int, fill_factor: float = 0.7
) -> int:
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
    total = (
        _ENTRY_HEADER.size * len(items) + sum(map(len, items)) + sum(map(len, items.values()))
    )
    usable_per_page = (page_size - _PAGE_HEADER.size) * fill_factor
    return max(1, math.ceil(total / usable_per_page))


def build_pages(items: Dict[bytes, bytes], num_pages: int, page_size: int) -> List[bytes]:
    """Serialise ``items`` into ``num_pages`` page images of at most ``page_size`` bytes.

    Keys are placed on their hash-assigned page; when a page is full the
    remaining entries spill onto subsequent pages (wrapping around), and every
    page that pushed entries onward has its overflow flag set so lookups know
    to continue.

    Each key's page word is read from the digest cache: flushed keys were
    inserted a buffer's worth of operations ago, so their digests are almost
    always still cached with every word filled, and the flush hashes nothing.
    """
    if num_pages <= 0:
        raise ValueError("num_pages must be positive")
    if page_size <= _PAGE_HEADER.size + _ENTRY_HEADER.size:
        raise ValueError("page_size too small to hold any entry")

    # Each entry is sized and encoded once and grouped under its home page.
    page_capacity = page_size - _PAGE_HEADER.size
    header_size = _ENTRY_HEADER.size
    pack = _ENTRY_HEADER.pack
    buckets: List[List[bytes]] = [[] for _ in range(num_pages)]
    for key, value in items.items():
        key_len = len(key)
        value_len = len(value)
        if header_size + key_len + value_len > page_capacity:
            raise KeyTooLargeError(
                f"entry of {header_size + key_len + value_len} bytes "
                f"cannot fit in a {page_size}-byte page"
            )
        try:
            entry = pack(key_len, value_len) + key + value
        except struct.error:
            raise KeyTooLargeError(
                "keys and values must fit in 16-bit length fields"
            ) from None
        digest = as_digest(key)
        page_hash = (digest.words or digest.clam_words())[PAGE_WORD]
        buckets[page_hash % num_pages].append(entry)

    # Assign entries to physical pages, home page by home page, with
    # wrap-around overflow.
    page_entries: List[List[bytes]] = [[] for _ in range(num_pages)]
    page_space = [page_capacity] * num_pages
    overflowed = [False] * num_pages
    for home, bucket in enumerate(buckets):
        for entry in bucket:
            entry_size = len(entry)
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
            page_entries[target].append(entry)
            page_space[target] -= entry_size

    pages: List[bytes] = []
    for entries, flag in zip(page_entries, overflowed):
        image = _PAGE_HEADER.pack(len(entries), 1 if flag else 0) + b"".join(entries)
        if len(image) > page_size:  # pragma: no cover - guarded by space accounting
            raise KeyTooLargeError("serialised page exceeded page_size")
        pages.append(image)
    return pages


def iter_page_entries(page_image: bytes) -> Iterator[Tuple[bytes, bytes]]:
    """Iterate over the (key, value) entries stored in one page image."""
    if not page_image:
        return
    count, _flag = _PAGE_HEADER.unpack_from(page_image, 0)
    offset = _PAGE_HEADER.size
    for _ in range(count):
        key_len, value_len = _ENTRY_HEADER.unpack_from(page_image, offset)
        offset += _ENTRY_HEADER.size
        key = page_image[offset : offset + key_len]
        offset += key_len
        value = page_image[offset : offset + value_len]
        offset += value_len
        yield key, value


def page_overflowed(page_image: bytes) -> bool:
    """Whether the page pushed entries onto the following page."""
    if not page_image:
        return False
    _count, flag = _PAGE_HEADER.unpack_from(page_image, 0)
    return bool(flag)


def search_page(page_image: bytes, key: bytes) -> Tuple[Optional[bytes], bool]:
    """Search one page image for ``key``.

    Returns ``(value, overflowed)`` where ``value`` is ``None`` when the key is
    not on this page and ``overflowed`` tells the caller whether probing the
    next page could still find it.

    This sits on the lookup fast path (one call per flash page read), so it
    scans the raw image with ``startswith`` at computed offsets instead of
    materialising a (key, value) slice pair per entry the way
    :func:`iter_page_entries` does.
    """
    if not page_image:
        return None, False
    count, flag = _PAGE_HEADER.unpack_from(page_image, 0)
    offset = _PAGE_HEADER.size
    key_size = len(key)
    unpack_entry = _ENTRY_HEADER.unpack_from
    entry_header_size = _ENTRY_HEADER.size
    for _ in range(count):
        key_len, value_len = unpack_entry(page_image, offset)
        offset += entry_header_size
        if key_len == key_size and page_image.startswith(key, offset):
            value_start = offset + key_len
            return page_image[value_start : value_start + value_len], bool(flag)
        offset += key_len + value_len
    return None, bool(flag)


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
