"""All-DRAM hash table (the RamSan-style DRAM-SSD comparison point).

Fast and simple — every operation costs a DRAM access — but the device
behind it costs $120K and draws 650 W (per the paper's RamSan numbers),
which is what the ops/s/$ comparison in §1/§7.5 is about.  See
:mod:`repro.analysis.cost_efficiency` for that calculation.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.hashing import KeyLike, to_key_bytes
from repro.core.results import (
    DeleteResult,
    InsertResult,
    LookupResult,
    OperationStats,
    ServedFrom,
)
from repro.flashsim.clock import SimulationClock
from repro.flashsim.dram import DRAM_PROFILE, DRAMDevice, DRAMProfile


class DRAMHashIndex:
    """Hash table living entirely in a DRAM-SSD appliance."""

    def __init__(
        self,
        device: Optional[DRAMDevice] = None,
        clock: Optional[SimulationClock] = None,
        profile: DRAMProfile = DRAM_PROFILE,
    ) -> None:
        if device is None:
            device = DRAMDevice(profile=profile, clock=clock)
        self.device = device
        self.clock = device.clock
        self.stats = OperationStats()
        self._data: Dict[bytes, bytes] = {}

    def _access(self, nbytes: int) -> float:
        latency = self.device.profile.access_latency_ms + nbytes * self.device.profile.per_byte_ms
        self.clock.advance(latency)
        return latency

    def insert(self, key: KeyLike, value: bytes) -> InsertResult:
        """Insert or update a key with a single DRAM access."""
        data = to_key_bytes(key)
        latency = self._access(len(data) + len(value))
        self._data[data] = bytes(value)
        result = InsertResult(key=data, latency_ms=latency)
        self.stats.record_insert(result)
        return result

    def update(self, key: KeyLike, value: bytes) -> InsertResult:
        """Alias of insert."""
        return self.insert(key, value)

    def lookup(self, key: KeyLike) -> LookupResult:
        """Look up a key with a single DRAM access."""
        data = to_key_bytes(key)
        latency = self._access(len(data))
        value = self._data.get(data)
        result = LookupResult(
            key=data,
            value=value,
            latency_ms=latency,
            served_from=ServedFrom.BUFFER if value is not None else ServedFrom.MISSING,
        )
        self.stats.record_lookup(result)
        return result

    def delete(self, key: KeyLike) -> DeleteResult:
        """Delete a key."""
        data = to_key_bytes(key)
        latency = self._access(len(data))
        removed = self._data.pop(data, None) is not None
        self.stats.deletes += 1
        return DeleteResult(key=data, latency_ms=latency, removed_from_buffer=removed)

    def get(self, key: KeyLike) -> Optional[bytes]:
        """Convenience accessor returning just the value (or ``None``)."""
        return self.lookup(key).value

    def __contains__(self, key: KeyLike) -> bool:
        return self.lookup(key).found
