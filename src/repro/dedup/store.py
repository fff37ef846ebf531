"""Chunk store for the deduplication system.

Unique chunks are appended to a large sequential store on disk; the dedup
index maps fingerprints to their addresses.  The store is deliberately
simple — deduplication's hard problem is the index, which is exactly the
paper's point.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.flashsim.device import StorageDevice, page_images


class ChunkStore:
    """Append-only store of unique chunks on a simulated device."""

    def __init__(self, device: StorageDevice) -> None:
        self.device = device
        self._next_page = 0
        # address -> (number of pages, length in bytes)
        self._chunks: Dict[int, Tuple[int, int]] = {}
        self.unique_chunks = 0
        self.unique_bytes = 0
        self.duplicate_chunks = 0
        self.duplicate_bytes = 0

    def append(self, size: int, payload: Optional[bytes] = None) -> Tuple[int, float]:
        """Store one unique chunk; returns ``(address, latency_ms)``.

        The store wraps to page 0 when full; a chunk whose pages a write
        lands on is forgotten, so :meth:`read` never returns torn bytes."""
        images = page_images(self.device.geometry.page_size, size, payload)
        if self._next_page + len(images) > self.device.geometry.total_pages:
            self._next_page = 0
        address = self._next_page
        # Appends are contiguous from page 0 on every lap, so an older chunk
        # overlapping this write either starts inside it or was already
        # dropped by the write just before.
        for page in range(address, address + len(images)):
            self._chunks.pop(page, None)
        latency = self.device.write_range(address, images)
        self._next_page += len(images)
        self._chunks[address] = (len(images), size)
        self.unique_chunks += 1
        self.unique_bytes += size
        return address, latency

    def note_duplicate(self, size: int) -> None:
        """Record that a duplicate chunk was suppressed (bookkeeping only)."""
        self.duplicate_chunks += 1
        self.duplicate_bytes += size

    def read(self, address: int) -> Tuple[bytes, float]:
        """Read a stored chunk back."""
        if address not in self._chunks:
            raise KeyError(f"no chunk stored at address {address}")
        num_pages, size = self._chunks[address]
        pages, latency = self.device.read_range(address, num_pages)
        return b"".join(pages)[:size], latency

    @property
    def dedup_ratio(self) -> float:
        """(unique + duplicate bytes) / unique bytes — the space saving factor."""
        if self.unique_bytes == 0:
            return 1.0
        return (self.unique_bytes + self.duplicate_bytes) / self.unique_bytes
