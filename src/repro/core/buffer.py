"""In-memory buffer of a super table.

The buffer is a small cuckoo hash table that keeps, besides its items, what
decides the next incarnation's Bloom filter; the flush writes that filter
once, into the super table's bit-sliced array.  All newly inserted values
land here; the super table flushes the buffer to flash when it reaches its
configured capacity (§5.1, "Buffer").
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.core.cuckoo import CuckooHashTable
from repro.core.errors import CapacityError
from repro.core.hashing import KeyDigest, KeyLike, as_digest


def optimal_num_hashes(bits_per_item: float) -> int:
    """Number of hash functions minimising false positives: ``m/n * ln 2``."""
    if bits_per_item <= 0:
        raise ValueError("bits_per_item must be positive")
    return max(1, round(bits_per_item * math.log(2)))


class Buffer:
    """Bounded in-memory staging area for one super table.

    ``get(key)`` is the cuckoo table's own bound method — the buffer adds
    nothing to it, and a buffer probe sits on every lookup.  The filter a drain
    decides (``bloom_bits`` by ``bloom_hashes``) holds every key put since the
    last drain, those :meth:`delete` removed included (a harmless false
    positive), and counts every successful put, an update again.
    """

    def __init__(self, capacity_items: int, num_slots: int, bloom_bits: int) -> None:
        if capacity_items <= 0:
            raise ValueError("capacity_items must be positive")
        if num_slots < capacity_items:
            raise ValueError("num_slots must be at least capacity_items")
        self.capacity_items = capacity_items
        self.num_slots = num_slots
        self.bloom_bits = bloom_bits
        self.bloom_hashes = optimal_num_hashes(bloom_bits / max(1, capacity_items))
        self._table = CuckooHashTable(num_slots)
        self.get = self._table.get
        # Since the last drain: successful puts, and the words of keys delete removed.
        self._puts = 0
        self._deleted: List[Sequence[int]] = []

    # -- Introspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._table)

    def items(self) -> Dict[bytes, bytes]:
        """Snapshot of the buffer's contents."""
        return dict(self._table.items())

    # -- Operations ----------------------------------------------------------------

    def put(self, key: KeyLike, value: bytes) -> bool:
        """Insert or update ``key``.

        Returns ``True`` on success and ``False`` when the buffer cannot take
        the item (either it is at capacity or the cuckoo path cycled); the
        caller should flush and retry.
        """
        key = key if type(key) is KeyDigest else as_digest(key)
        table = self._table
        entries = table.entries
        if len(entries) >= self.capacity_items and key.data not in entries:
            return False
        try:
            table.put(key, value)
        except CapacityError:
            return False
        self._puts += 1
        return True

    def delete(self, key: KeyLike) -> bool:
        """Remove ``key``; returns whether it was present."""
        key = key if type(key) is KeyDigest else as_digest(key)
        if not self._table.delete(key):
            return False
        self._deleted.append(key.words)  # filled by the table's probe
        return True

    def drain(self) -> Tuple[Dict[bytes, bytes], List[Sequence[int]], int]:
        """Empty the buffer; returns ``(items, key_words, item_count)``, where
        ``key_words`` lists each item's CLAM words in the items' order and
        then those of every key :meth:`delete` removed since the last drain."""
        items, key_words = self._table.drain()
        key_words += self._deleted
        item_count, self._puts, self._deleted = self._puts, 0, []
        return items, key_words, item_count
