"""External B-tree index baseline (Berkeley-DB's B-tree access method).

The paper briefly notes (§7.2.2) that BDB's B-tree index performed worse
than its hash index for this workload, because the fingerprint keys are
uniformly random: every insertion lands on a random leaf, so leaf pages are
read and written randomly just like hash buckets, with the added cost of
traversing (cached) internal nodes and periodically splitting leaves.

The implementation keeps the tree structure in memory for correctness but
charges device I/O for leaf reads/writes and for the fraction of internal
node accesses that miss the node cache, mirroring how a real BDB B-tree with
a default-sized cache behaves on random keys.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.core.hashing import KeyLike, to_key_bytes
from repro.core.results import (
    DeleteResult,
    InsertResult,
    LookupResult,
    OperationStats,
    ServedFrom,
)
from repro.flashsim.device import StorageDevice


class _Leaf:
    __slots__ = ("keys", "values", "page")

    def __init__(self, page: int) -> None:
        self.keys: List[bytes] = []
        self.values: List[bytes] = []
        self.page = page


class ExternalBTreeIndex:
    """A B-tree of order ``fanout`` whose leaves live on the device.

    Internal nodes are assumed cached in DRAM (they are a tiny fraction of
    the index); every leaf access pays a random page read, every leaf
    modification a random page write, and splits write both halves.
    """

    MEMORY_COST_MS = 0.005

    def __init__(
        self,
        device: StorageDevice,
        leaf_capacity: int = 24,
    ) -> None:
        if leaf_capacity < 4:
            raise ValueError("leaf_capacity must be at least 4")
        self.device = device
        self.clock = device.clock
        self.leaf_capacity = leaf_capacity
        self.stats = OperationStats()
        self._next_page = 0
        first_leaf = _Leaf(self._allocate_page())
        # Sorted separators and child leaves (a two-level tree is enough for
        # the simulated scale; separator search is in-memory either way).
        self._separators: List[bytes] = []
        self._leaves: List[_Leaf] = [first_leaf]

    # -- Internals ---------------------------------------------------------------

    def _allocate_page(self) -> int:
        page = self._next_page % self.device.geometry.total_pages
        self._next_page += 1
        return page

    def _charge_memory(self) -> float:
        self.clock.advance(self.MEMORY_COST_MS)
        return self.MEMORY_COST_MS

    def _leaf_for(self, key: bytes) -> Tuple[int, _Leaf]:
        index = bisect.bisect_right(self._separators, key)
        return index, self._leaves[index]

    def _read_leaf(self, leaf: _Leaf) -> float:
        _payload, latency = self.device.read_page(leaf.page)
        return latency

    def _write_leaf(self, leaf: _Leaf) -> float:
        return self.device.write_page(leaf.page, b"", sequential=False)

    def _split_leaf(self, index: int, leaf: _Leaf) -> float:
        middle = len(leaf.keys) // 2
        right = _Leaf(self._allocate_page())
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        separator = right.keys[0]
        self._separators.insert(index, separator)
        self._leaves.insert(index + 1, right)
        # Both halves are written back.
        return self._write_leaf(leaf) + self._write_leaf(right)

    # -- Operations -----------------------------------------------------------------

    def insert(self, key: KeyLike, value: bytes) -> InsertResult:
        """Insert or update a key in its leaf (read, modify, write, maybe split)."""
        data = to_key_bytes(key)
        latency = self._charge_memory()
        index, leaf = self._leaf_for(data)
        latency += self._read_leaf(leaf)
        flash_reads = 1
        flash_writes = 0
        position = bisect.bisect_left(leaf.keys, data)
        if position < len(leaf.keys) and leaf.keys[position] == data:
            leaf.values[position] = bytes(value)
        else:
            leaf.keys.insert(position, data)
            leaf.values.insert(position, bytes(value))
        if len(leaf.keys) > self.leaf_capacity:
            latency += self._split_leaf(index, leaf)
            flash_writes += 2
        else:
            latency += self._write_leaf(leaf)
            flash_writes += 1
        result = InsertResult(
            key=data, latency_ms=latency, flash_reads=flash_reads, flash_writes=flash_writes
        )
        self.stats.record_insert(result)
        return result

    def update(self, key: KeyLike, value: bytes) -> InsertResult:
        """Alias of insert (in-place leaf update)."""
        return self.insert(key, value)

    def lookup(self, key: KeyLike) -> LookupResult:
        """Look up a key (one leaf read)."""
        data = to_key_bytes(key)
        latency = self._charge_memory()
        _index, leaf = self._leaf_for(data)
        latency += self._read_leaf(leaf)
        position = bisect.bisect_left(leaf.keys, data)
        value: Optional[bytes] = None
        if position < len(leaf.keys) and leaf.keys[position] == data:
            value = leaf.values[position]
        result = LookupResult(
            key=data,
            value=value,
            latency_ms=latency,
            served_from=ServedFrom.INCARNATION if value is not None else ServedFrom.MISSING,
            flash_reads=1,
        )
        self.stats.record_lookup(result)
        return result

    def delete(self, key: KeyLike) -> DeleteResult:
        """Delete a key from its leaf (read-modify-write)."""
        data = to_key_bytes(key)
        latency = self._charge_memory()
        _index, leaf = self._leaf_for(data)
        latency += self._read_leaf(leaf)
        position = bisect.bisect_left(leaf.keys, data)
        removed = False
        if position < len(leaf.keys) and leaf.keys[position] == data:
            del leaf.keys[position]
            del leaf.values[position]
            latency += self._write_leaf(leaf)
            removed = True
        self.stats.deletes += 1
        return DeleteResult(key=data, latency_ms=latency, removed_from_buffer=removed)

    def get(self, key: KeyLike) -> Optional[bytes]:
        """Convenience accessor returning just the value (or ``None``)."""
        return self.lookup(key).value

    def __contains__(self, key: KeyLike) -> bool:
        return self.lookup(key).found

    def items(self) -> Dict[bytes, bytes]:
        """All stored items in key order."""
        merged: Dict[bytes, bytes] = {}
        for leaf in self._leaves:
            merged.update(zip(leaf.keys, leaf.values))
        return merged
