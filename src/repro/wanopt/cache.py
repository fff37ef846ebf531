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

from repro.flashsim.device import OverwritingPageLog, StorageDevice
from repro.wanopt.fingerprint import BytesLike


class ContentCache:
    """Fingerprint directory over a page log on a simulated disk (or any storage device)."""

    def __init__(self, device: StorageDevice) -> None:
        self.device = device
        self._log = OverwritingPageLog(device)
        # fingerprint -> address of its newest copy in the log
        self._directory: Dict[bytes, int] = {}
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
        address, latency, evicted = self._log.append(size, payload, tag=fingerprint)
        for overwritten in evicted:
            del self._directory[overwritten]
        # A fingerprint stored again points at its newest copy only, which
        # keeps the directory and the log's live regions one-to-one.
        previous = self._directory.get(fingerprint)
        if previous is not None:
            self._log.forget(previous)
        self._directory[fingerprint] = address
        self.bytes_stored += size
        self.chunks_stored += 1
        return address, latency

    def contains(self, fingerprint: bytes) -> bool:
        """Whether the cache currently holds a chunk with this fingerprint."""
        return fingerprint in self._directory

    def read(self, fingerprint: bytes) -> Tuple[Optional[bytes], float]:
        """Read a chunk back; returns ``(payload or None, latency_ms)``."""
        address = self._directory.get(fingerprint)
        if address is None:
            return None, 0.0
        return self._log.read(address)

    def address_of(self, fingerprint: bytes) -> Optional[int]:
        """Cache address of a chunk (what the fingerprint index stores)."""
        return self._directory.get(fingerprint)
