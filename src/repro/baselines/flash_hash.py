"""Conventional hash table written directly to flash (no buffering).

Section 4 of the paper explains why a straightforward hash table on flash
performs poorly: every insertion is a small random write (violating design
principles P1-P3), and updates/deletes force in-place page rewrites.  This
baseline exists for the §7.3.1 ablation ("the effect of buffering is
obvious; without it, all insertions go to the flash") and for the general
hash-table comparison in §4.

An optional in-memory Bloom filter can be attached to suppress flash reads
for absent keys, matching the paper's observation that Bloom filters help a
traditional hash table as well.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.bloom import BloomFilter
from repro.core.hashing import FLASH_BASELINE_SEED, KeyLike, hash_key, to_key_bytes
from repro.core.results import (
    DeleteResult,
    InsertResult,
    LookupResult,
    OperationStats,
    ServedFrom,
)
from repro.flashsim.device import StorageDevice


class ConventionalFlashHash:
    """Open-addressed hash table whose slots are device pages."""

    MEMORY_COST_MS = 0.003

    def __init__(
        self,
        device: StorageDevice,
        use_bloom_filter: bool = False,
        bloom_capacity: int = 1 << 16,
    ) -> None:
        self.device = device
        self.clock = device.clock
        self.stats = OperationStats()
        self._data: Dict[bytes, bytes] = {}
        self._bloom: Optional[BloomFilter] = (
            BloomFilter.for_capacity(bloom_capacity) if use_bloom_filter else None
        )

    def _page_for(self, key: bytes) -> int:
        return hash_key(key, seed=FLASH_BASELINE_SEED) % self.device.geometry.total_pages

    def _charge_memory(self) -> float:
        self.clock.advance(self.MEMORY_COST_MS)
        return self.MEMORY_COST_MS

    def insert(self, key: KeyLike, value: bytes) -> InsertResult:
        """Insert a key: one small random page write straight to flash."""
        data = to_key_bytes(key)
        latency = self._charge_memory()
        page = self._page_for(data)
        latency += self.device.write_page(
            page, data[: self.device.geometry.page_size], sequential=False
        )
        self._data[data] = bytes(value)
        if self._bloom is not None:
            self._bloom.add(data)
        result = InsertResult(key=data, latency_ms=latency, flash_writes=1)
        self.stats.record_insert(result)
        return result

    def update(self, key: KeyLike, value: bytes) -> InsertResult:
        """In-place update: read the page, then rewrite it."""
        data = to_key_bytes(key)
        latency = self._charge_memory()
        page = self._page_for(data)
        _payload, read_latency = self.device.read_page(page)
        latency += read_latency
        latency += self.device.write_page(
            page, data[: self.device.geometry.page_size], sequential=False
        )
        self._data[data] = bytes(value)
        if self._bloom is not None:
            self._bloom.add(data)
        result = InsertResult(key=data, latency_ms=latency, flash_writes=1, flash_reads=1)
        self.stats.record_insert(result)
        return result

    def lookup(self, key: KeyLike) -> LookupResult:
        """Look up a key: one random page read (unless the Bloom filter says no)."""
        data = to_key_bytes(key)
        latency = self._charge_memory()
        if self._bloom is not None and data not in self._bloom:
            result = LookupResult(
                key=data, value=None, latency_ms=latency, served_from=ServedFrom.MISSING
            )
            self.stats.record_lookup(result)
            return result
        page = self._page_for(data)
        _payload, read_latency = self.device.read_page(page)
        latency += read_latency
        value = self._data.get(data)
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
        """Delete a key: an in-place page rewrite (sub-block deletion on flash)."""
        data = to_key_bytes(key)
        latency = self._charge_memory()
        page = self._page_for(data)
        latency += self.device.write_page(page, b"", sequential=False)
        removed = self._data.pop(data, None) is not None
        self.stats.deletes += 1
        return DeleteResult(key=data, latency_ms=latency, removed_from_buffer=removed)

    def get(self, key: KeyLike) -> Optional[bytes]:
        """Convenience accessor returning just the value (or ``None``)."""
        return self.lookup(key).value

    def __contains__(self, key: KeyLike) -> bool:
        return self.lookup(key).found
