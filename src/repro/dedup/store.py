"""Chunk store for the deduplication system.

Unique chunks are appended to a large sequential store on disk; the dedup
index maps fingerprints to their addresses.  The store is deliberately
simple — deduplication's hard problem is the index, which is exactly the
paper's point.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.flashsim.device import OverwritingPageLog, StorageDevice


class ChunkStore:
    """An overwriting page log of unique chunks plus the dedup counters."""

    def __init__(self, device: StorageDevice) -> None:
        self.device = device
        self._log = OverwritingPageLog(device)
        self.unique_chunks = 0
        self.unique_bytes = 0
        self.duplicate_chunks = 0
        self.duplicate_bytes = 0

    def append(self, size: int, payload: Optional[bytes] = None) -> Tuple[int, float]:
        """Store one unique chunk; returns ``(address, latency_ms)``.

        The store wraps to page 0 when full; a chunk whose pages a write
        lands on is forgotten, so :meth:`read` never returns torn bytes."""
        address, latency, _evicted = self._log.append(size, payload)
        self.unique_chunks += 1
        self.unique_bytes += size
        return address, latency

    def note_duplicate(self, size: int) -> None:
        """Record that a duplicate chunk was suppressed (bookkeeping only)."""
        self.duplicate_chunks += 1
        self.duplicate_bytes += size

    def read(self, address: int) -> Tuple[bytes, float]:
        """Read a stored chunk back; ``KeyError`` for an address holding none."""
        return self._log.read(address)

    @property
    def dedup_ratio(self) -> float:
        """(unique + duplicate bytes) / unique bytes — the space saving factor."""
        if self.unique_bytes == 0:
            return 1.0
        return (self.unique_bytes + self.duplicate_bytes) / self.unique_bytes
