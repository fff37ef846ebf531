"""Berkeley-DB-style external hash index (the ``DB+SSD`` / ``DB+Disk`` baseline).

Berkeley-DB's hash access method stores buckets in pages on the underlying
device and, without any write buffering, each insertion dirties and writes
one (essentially random) page, and each lookup reads one random page.  That
I/O pattern is exactly what makes the baseline slow in the paper: on a
magnetic disk every operation pays a seek (~7 ms), and on an SSD the
sustained stream of small random writes forces the drive into foreground
garbage collection (§7.2.2).

We reproduce the behaviour, not the Berkeley-DB code: keys hash to a bucket
page, bucket pages store entries inline, overflow pages chain off full
buckets, and a small in-memory cache of hot pages (the "DB cache") absorbs
repeated accesses to the same bucket, as BDB's default cache does.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.hashing import DISK_BASELINE_SEED, KeyLike, hash_key, to_key_bytes
from repro.core.results import (
    DeleteResult,
    InsertResult,
    LookupResult,
    OperationStats,
    ServedFrom,
)
from repro.flashsim.clock import SimulationClock
from repro.flashsim.device import StorageDevice


class ExternalHashIndex:
    """On-device hash index with one random page I/O per operation.

    Parameters
    ----------
    device:
        The SSD or magnetic disk holding the index pages.
    num_buckets:
        Number of primary bucket pages; defaults to 1/4 of the device pages
        (leaving room for overflow pages).
    cache_pages:
        In-memory page cache entries (LRU).  Writes are write-through, as in
        a BDB store configured for durability.
    in_memory_filter:
        Optional Bloom-filter-like set of present keys used to suppress reads
        for keys that were never inserted (the paper notes BDB could be
        supplemented with such a filter; disabled by default).
    """

    #: Simulated CPU cost of hashing the key and searching a cached page.
    MEMORY_COST_MS = 0.004

    def __init__(
        self,
        device: StorageDevice,
        num_buckets: Optional[int] = None,
        cache_pages: int = 64,
        in_memory_filter: bool = False,
        entries_per_page: int = 24,
    ) -> None:
        self.device = device
        self.clock: SimulationClock = device.clock
        total_pages = device.geometry.total_pages
        if num_buckets is None:
            num_buckets = max(16, total_pages // 4)
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        self.num_buckets = min(num_buckets, max(16, total_pages // 2))
        self.entries_per_page = entries_per_page
        self.cache_pages = cache_pages
        self.stats = OperationStats()

        # Bucket page contents are mirrored in memory for correctness checking;
        # every access still pays device I/O unless the page is cached.
        self._pages: Dict[int, Dict[bytes, bytes]] = {}
        self._overflow: Dict[int, List[int]] = {}
        self._next_overflow_page = self.num_buckets
        self._cache: OrderedDict[int, None] = OrderedDict()
        self._present: Optional[set[bytes]] = set() if in_memory_filter else None

    # -- Helpers -----------------------------------------------------------------

    def _bucket_for(self, key: bytes) -> int:
        return hash_key(key, seed=DISK_BASELINE_SEED) % self.num_buckets

    def _charge_memory(self) -> float:
        self.clock.advance(self.MEMORY_COST_MS)
        return self.MEMORY_COST_MS

    def _cached(self, page: int) -> bool:
        if page in self._cache:
            self._cache.move_to_end(page)
            return True
        return False

    def _touch_cache(self, page: int) -> None:
        self._cache[page] = None
        self._cache.move_to_end(page)
        while len(self._cache) > self.cache_pages:
            self._cache.popitem(last=False)

    def _read_page(self, page: int) -> float:
        if self._cached(page):
            return 0.0
        _payload, latency = self.device.read_page(page % self.device.geometry.total_pages)
        self._touch_cache(page)
        return latency

    def _write_page(self, page: int) -> float:
        latency = self.device.write_page(
            page % self.device.geometry.total_pages, b"", sequential=False
        )
        self._touch_cache(page)
        return latency

    def _chain_for(self, bucket: int) -> List[int]:
        return [bucket] + self._overflow.get(bucket, [])

    # -- Operations ----------------------------------------------------------------

    def insert(self, key: KeyLike, value: bytes) -> InsertResult:
        """Insert or update a key (one random page read-modify-write)."""
        data = to_key_bytes(key)
        latency = self._charge_memory()
        bucket = self._bucket_for(data)
        chain = self._chain_for(bucket)
        flash_reads = 0
        flash_writes = 0
        target_page: Optional[int] = None
        for page in chain:
            latency += self._read_page(page)
            flash_reads += 1
            contents = self._pages.setdefault(page, {})
            if data in contents or len(contents) < self.entries_per_page:
                target_page = page
                break
        if target_page is None:
            # Allocate a new overflow page for this bucket.
            target_page = self._next_overflow_page
            self._next_overflow_page += 1
            self._overflow.setdefault(bucket, []).append(target_page)
            self._pages[target_page] = {}
        self._pages[target_page][data] = bytes(value)
        latency += self._write_page(target_page)
        flash_writes += 1
        if self._present is not None:
            self._present.add(data)
        result = InsertResult(
            key=data, latency_ms=latency, flash_writes=flash_writes, flash_reads=flash_reads
        )
        self.stats.record_insert(result)
        return result

    def update(self, key: KeyLike, value: bytes) -> InsertResult:
        """Updates are in-place page rewrites, same cost as inserts."""
        return self.insert(key, value)

    def lookup(self, key: KeyLike) -> LookupResult:
        """Look up a key (one random page read, plus overflow chain reads)."""
        data = to_key_bytes(key)
        latency = self._charge_memory()
        if self._present is not None and data not in self._present:
            result = LookupResult(
                key=data, value=None, latency_ms=latency, served_from=ServedFrom.MISSING
            )
            self.stats.record_lookup(result)
            return result
        bucket = self._bucket_for(data)
        flash_reads = 0
        value: Optional[bytes] = None
        for page in self._chain_for(bucket):
            latency += self._read_page(page)
            flash_reads += 1
            value = self._pages.get(page, {}).get(data)
            if value is not None:
                break
        result = LookupResult(
            key=data,
            value=value,
            latency_ms=latency,
            served_from=ServedFrom.INCARNATION if value is not None else ServedFrom.MISSING,
            flash_reads=flash_reads,
        )
        self.stats.record_lookup(result)
        return result

    def delete(self, key: KeyLike) -> DeleteResult:
        """Delete a key (read-modify-write of its bucket page)."""
        data = to_key_bytes(key)
        latency = self._charge_memory()
        bucket = self._bucket_for(data)
        removed = False
        for page in self._chain_for(bucket):
            latency += self._read_page(page)
            contents = self._pages.get(page, {})
            if data in contents:
                del contents[data]
                latency += self._write_page(page)
                removed = True
                break
        if self._present is not None:
            self._present.discard(data)
        self.stats.deletes += 1
        return DeleteResult(key=data, latency_ms=latency, removed_from_buffer=removed)

    def get(self, key: KeyLike) -> Optional[bytes]:
        """Convenience accessor returning just the value (or ``None``)."""
        return self.lookup(key).value

    def __contains__(self, key: KeyLike) -> bool:
        return self.lookup(key).found

    def lookup_batch(self, keys: Iterable[KeyLike]) -> List[LookupResult]:
        """Loop fallback: one of ``FingerprintIndex``'s two batched calls.

        BDB has no shards to fan a batch out to, so batched operations run
        sequentially against the one device; results match sequential calls.
        """
        return [self.lookup(key) for key in keys]

    def insert_batch(self, items: Iterable[Tuple[KeyLike, bytes]]) -> List[InsertResult]:
        """Insert every ``(key, value)`` pair in order; results in order."""
        return [self.insert(key, value) for key, value in items]

    def items(self) -> Dict[bytes, bytes]:
        """All stored items (offline helper for merge experiments)."""
        merged: Dict[bytes, bytes] = {}
        for contents in self._pages.values():
            merged.update(contents)
        return merged
