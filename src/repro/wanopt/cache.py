"""On-disk content cache of the WAN optimizer's compression engine.

The compression engine keeps the actual chunk payloads in a large content
cache on a magnetic disk (§8, "The CE maintains a large content cache on a
magnetic disk"); the fingerprint index (CLAM or BDB) maps fingerprints to
the cache addresses of those chunks.  Chunks are appended sequentially — the
cheapest write pattern for a disk — and read back randomly when an object is
reconstructed on the far side.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.flashsim.device import StorageDevice, page_images
from repro.wanopt.fingerprint import BytesLike


class ContentCache:
    """Append-only chunk store on a simulated disk (or any storage device)."""

    def __init__(self, device: StorageDevice) -> None:
        self.device = device
        self._next_page = 0
        # fingerprint -> (start page, number of pages, length in bytes)
        self._directory: Dict[bytes, Tuple[int, int, int]] = {}
        # start page -> fingerprint: the directory seen from the device, so a
        # write can find the chunks it lands on.
        self._chunk_at: Dict[int, bytes] = {}
        self.bytes_stored = 0
        self.chunks_stored = 0

    @property
    def capacity_bytes(self) -> int:
        """Raw capacity of the backing device."""
        return self.device.geometry.capacity_bytes

    def store(
        self, fingerprint: bytes, size: int, payload: Optional[BytesLike] = None
    ) -> Tuple[int, float]:
        """Append a chunk; returns ``(address, latency_ms)``.

        The cache wraps around when full (oldest content is overwritten),
        mirroring the FIFO behaviour of commercial WAN optimizer stores; a
        chunk whose pages this write lands on leaves the directory.
        ``payload`` may be any bytes-like buffer (see
        :func:`~repro.flashsim.device.page_images`).
        """
        if size > self.capacity_bytes:
            raise ValueError("chunk larger than the entire content cache")
        images = page_images(self.device.geometry.page_size, size, payload)
        pages_needed = len(images)
        if self._next_page + pages_needed > self.device.geometry.total_pages:
            self._next_page = 0
        address = self._next_page
        # Appends are contiguous from page 0 on every lap, so an older chunk
        # overlapping this write either starts inside it or was already
        # dropped by the write just before.
        for page in range(address, address + pages_needed):
            overwritten = self._chunk_at.pop(page, None)
            if overwritten is not None:
                del self._directory[overwritten]
        latency = self.device.write_range(address, images)
        self._next_page += pages_needed
        # A fingerprint stored again points at its newest copy only, which
        # keeps the two maps one-to-one.
        previous = self._directory.get(fingerprint)
        if previous is not None:
            del self._chunk_at[previous[0]]
        self._directory[fingerprint] = (address, pages_needed, size)
        self._chunk_at[address] = fingerprint
        self.bytes_stored += size
        self.chunks_stored += 1
        return address, latency

    def contains(self, fingerprint: bytes) -> bool:
        """Whether the cache currently holds a chunk with this fingerprint."""
        return fingerprint in self._directory

    def read(self, fingerprint: bytes) -> Tuple[Optional[bytes], float]:
        """Read a chunk back; returns ``(payload or None, latency_ms)``."""
        entry = self._directory.get(fingerprint)
        if entry is None:
            return None, 0.0
        address, num_pages, size = entry
        pages, latency = self.device.read_range(address, num_pages)
        payload = b"".join(pages)[:size]
        return payload, latency

    def address_of(self, fingerprint: bytes) -> Optional[int]:
        """Cache address of a chunk (what the fingerprint index stores)."""
        entry = self._directory.get(fingerprint)
        return entry[0] if entry is not None else None
