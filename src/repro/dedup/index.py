"""Deduplication index: fingerprint → chunk-store address, on a pluggable hash table.

The index accepts a stream of (fingerprint, size) chunk descriptors, stores
new chunks in the :class:`~repro.dedup.store.ChunkStore` and suppresses
duplicates.  It works with a CLAM or with any baseline index, which is what
allows the merge benchmark to compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.core.results import InsertResult, LookupResult
from repro.dedup.store import ChunkStore
from repro.wanopt.fingerprint import Chunk


@dataclass
class DedupStats:
    """Counters describing one ingest run."""

    chunks_stored: int = 0
    duplicates_suppressed: int = 0
    bytes_seen: int = 0
    bytes_stored: int = 0
    index_time_ms: float = 0.0
    store_time_ms: float = 0.0

    @property
    def dedup_ratio(self) -> float:
        """bytes seen / bytes stored."""
        if self.bytes_stored == 0:
            return 1.0 if self.bytes_seen == 0 else float("inf")
        return self.bytes_seen / self.bytes_stored


class DedupIndex:
    """Fingerprint index + chunk store forming a deduplication pipeline."""

    def __init__(self, index, store: Optional[ChunkStore] = None) -> None:
        self.index = index
        self.store = store
        self.stats = DedupStats()

    def ingest_chunk(self, chunk: Chunk) -> Tuple[bool, float]:
        """Process one chunk; returns ``(was_duplicate, latency_ms)``."""
        self.stats.bytes_seen += chunk.size
        lookup: LookupResult = self.index.lookup(chunk.fingerprint)
        latency = lookup.latency_ms
        self.stats.index_time_ms += lookup.latency_ms
        if lookup.found:
            self.stats.duplicates_suppressed += 1
            if self.store is not None:
                self.store.note_duplicate(chunk.size)
            return True, latency
        address = 0
        if self.store is not None:
            address, store_latency = self.store.append(chunk.size, chunk.payload)
            self.stats.store_time_ms += store_latency
            latency += store_latency
        insert: InsertResult = self.index.insert(chunk.fingerprint, address.to_bytes(8, "big"))
        self.stats.index_time_ms += insert.latency_ms
        latency += insert.latency_ms
        self.stats.chunks_stored += 1
        self.stats.bytes_stored += chunk.size
        return False, latency

    def ingest(self, chunks: Iterable[Chunk]) -> DedupStats:
        """Process a stream of chunks and return the updated statistics."""
        for chunk in chunks:
            self.ingest_chunk(chunk)
        return self.stats

    def contains(self, fingerprint: bytes) -> bool:
        """Whether a fingerprint is present in the index."""
        return self.index.lookup(fingerprint).found
