"""DRAM device model.

Used for two purposes:

* as the "memory" half of a CLAM (buffers and Bloom filters live in DRAM and
  their access cost is effectively zero next to flash);
* as the basis of the DRAM-SSD (RamSan-style) baseline in the ops/s/$
  cost-efficiency comparison of §1/§7.5 — extremely fast, but with a device
  cost and power draw orders of magnitude above commodity flash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.flashsim.clock import SimulationClock
from repro.flashsim.device import DeviceGeometry, StorageDevice


@dataclass(frozen=True)
class DRAMProfile:
    """Latency, capacity and cost parameters of a DRAM store."""

    name: str
    geometry: DeviceGeometry
    access_latency_ms: float
    per_byte_ms: float
    device_cost_dollars: float
    power_watts: float


# The RamSan-400 referenced by the paper: 128 GB, 300 K IOPS, $120K, 650 W.
# Geometry is scaled down (capacity does not affect latency modelling).
DRAM_PROFILE = DRAMProfile(
    name="ramsan-dram-ssd",
    geometry=DeviceGeometry(page_size=512, pages_per_block=256, num_blocks=2048),
    access_latency_ms=1.0 / 300.0,  # 300K IOPS -> ~0.0033 ms per IO
    per_byte_ms=1.0 / (2 * 1024 * 1024 * 1024) * 1000.0,
    device_cost_dollars=120_000.0,
    power_watts=650.0,
)


class DRAMDevice(StorageDevice):
    """Flat-latency memory device; reads and writes cost the same tiny amount."""

    def __init__(
        self,
        profile: DRAMProfile = DRAM_PROFILE,
        clock: Optional[SimulationClock] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(
            geometry=profile.geometry,
            clock=clock,
            name=name or profile.name,
        )
        self.profile = profile

    def _read_latency(self, nbytes: int, sequential: bool) -> float:
        return self.profile.access_latency_ms + nbytes * self.profile.per_byte_ms

    def _write_latency(self, nbytes: int, sequential: bool) -> float:
        return self.profile.access_latency_ms + nbytes * self.profile.per_byte_ms
