"""Magnetic disk model (seek + rotational latency + transfer).

Calibrated against the Hitachi Deskstar 7K80 used for the paper's
``BH+Disk`` and ``DB+Disk`` baselines: random operations pay an average
seek (~8 ms) plus half-rotation latency (7200 RPM → ~4.2 ms), giving the
~7 ms average and ~12 ms worst-case per-operation latencies reported in
§7.2.1/§7.3.2, while sequential transfers stream at tens of MB/s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.flashsim.clock import SimulationClock
from repro.flashsim.device import DeviceGeometry, StorageDevice


@dataclass(frozen=True)
class DiskProfile:
    """Mechanical and transfer parameters of a hard disk."""

    name: str
    geometry: DeviceGeometry
    average_seek_ms: float
    seek_jitter_ms: float
    rotation_ms: float
    transfer_mb_per_s: float
    track_locality_pages: int
    device_cost_dollars: float = 80.0

    @property
    def per_byte_ms(self) -> float:
        """Transfer cost per byte in milliseconds."""
        return 1000.0 / (self.transfer_mb_per_s * 1024 * 1024)


MAGNETIC_DISK_PROFILE = DiskProfile(
    name="hitachi-7k80",
    geometry=DeviceGeometry(page_size=512, pages_per_block=256, num_blocks=8192),
    average_seek_ms=3.0,
    seek_jitter_ms=2.5,
    rotation_ms=8.33,  # 7200 RPM full rotation; average rotational delay is half.
    transfer_mb_per_s=60.0,
    track_locality_pages=128,
    device_cost_dollars=80.0,
)


class MagneticDisk(StorageDevice):
    """Seek-latency dominated block device.

    Random accesses pay seek + average rotational delay; accesses close to
    the previous position (within ``track_locality_pages``) pay only a short
    settle time, and declared-sequential streaming pays transfer cost only.
    Seek times include deterministic pseudo-random jitter so latency CDFs
    have realistic spread while remaining reproducible.
    """

    def __init__(
        self,
        profile: DiskProfile = MAGNETIC_DISK_PROFILE,
        clock: Optional[SimulationClock] = None,
        name: Optional[str] = None,
        seed: int = 0x5EED,
    ) -> None:
        super().__init__(
            geometry=profile.geometry,
            clock=clock,
            name=name or profile.name,
        )
        self.profile = profile
        self._rng = random.Random(seed)
        self._head_page = 0

    def _positioning_latency(self, sequential: bool) -> float:
        if sequential:
            return 0.0
        jitter = self._rng.uniform(-self.profile.seek_jitter_ms, self.profile.seek_jitter_ms)
        seek = max(0.5, self.profile.average_seek_ms + jitter)
        rotational = self.profile.rotation_ms / 2.0
        return seek + rotational

    def _read_latency(self, nbytes: int, sequential: bool) -> float:
        transfer = nbytes * self.profile.per_byte_ms
        return self._positioning_latency(sequential) + transfer

    def _write_latency(self, nbytes: int, sequential: bool) -> float:
        transfer = nbytes * self.profile.per_byte_ms
        return self._positioning_latency(sequential) + transfer
