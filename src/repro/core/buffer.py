"""In-memory buffer of a super table.

The buffer is a small cuckoo hash table plus the Bloom filter that will be
frozen as the next incarnation's signature.  All newly inserted values land
here; the super table flushes the buffer to flash when it reaches its
configured capacity (§5.1, "Buffer").
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.bloom import BloomFilter, optimal_num_hashes
from repro.core.cuckoo import CuckooHashTable
from repro.core.errors import CapacityError
from repro.core.hashing import KeyDigest, KeyLike, as_digest


class Buffer:
    """Bounded in-memory staging area for one super table.

    ``get(key)`` returns the value stored for ``key`` (or ``None``) and
    ``delete(key)`` removes it, returning whether it was present (its Bloom
    bits stay set; they only cause a harmless false positive).  Both are the
    cuckoo table's own bound methods — the buffer adds nothing to them, and a
    buffer probe sits on every lookup — so they are bound in ``__init__``
    rather than wrapped.
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
        self._bloom = BloomFilter(bloom_bits, self.bloom_hashes)
        self.get = self._table.get
        self.delete = self._table.delete

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
        if len(table) >= self.capacity_items and table.get(key) is None:
            return False
        try:
            table.put(key, value)
        except CapacityError:
            return False
        self._bloom.add(key)
        return True

    def drain(self) -> Tuple[Dict[bytes, bytes], BloomFilter]:
        """Return the buffer contents and its Bloom filter, then start empty.

        Called by the super table when it flushes the buffer to flash; the
        filter goes with the items and a new one takes its place.
        """
        frozen = self._bloom
        self._bloom = BloomFilter(self.bloom_bits, self.bloom_hashes)
        return self._table.drain(), frozen
