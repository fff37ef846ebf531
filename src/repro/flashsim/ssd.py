"""SSD device model with calibrated Intel-like and Transcend-like profiles.

An SSD exposes sector-granularity reads and writes.  Internally, the write
path behaves like a log-structured FTL: sequential writes (and large batched
writes) are cheap, while sustained small random writes consume the pool of
pre-erased blocks and push garbage collection onto the critical path,
inflating the latency of *every* subsequent operation.  The model captures
this with a "clean-pool credit" mechanism:

* every write consumes clean-pool credit proportional to its size, scaled by
  a write-amplification factor that is large for random writes (they
  fragment blocks) and small for sequential writes (they fill blocks
  completely and are reclaimed for free);
* credit replenishes with simulated idle time (background garbage
  collection);
* when credit is exhausted, writes stall behind foreground garbage
  collection and concurrent reads also slow down because the flash channels
  are busy relocating data.

This reproduces the phenomenon §7.2.2 of the paper measures: a BDB-style
index that issues one small random write per insertion drives the Intel SSD
into sustained garbage collection and sees ~4.6-4.8 ms per operation, while
BufferHash's rare, large, sequential flushes leave the clean pool healthy
and see sub-0.1 ms averages.

Latency calibration targets (from the paper):

* Intel X18-M: random read ≈ 0.15 ms, one flash I/O per lookup ≈ 0.31 ms
  (Table 2), worst-case buffer flush ≈ 2.7 ms, BDB-on-SSD under continuous
  load ≈ 4.6-4.8 ms per operation.
* Transcend TS32GSSD25: reads ≈ 0.5-1 ms, worst-case flush ≈ 30 ms,
  an order of magnitude slower writes than the Intel device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.flashsim.clock import SimulationClock
from repro.flashsim.device import DeviceGeometry, StorageDevice
from repro.flashsim.latency import IOCost, LinearCostModel


@dataclass(frozen=True)
class SSDProfile:
    """Calibrated parameter set for one SSD model."""

    name: str
    geometry: DeviceGeometry
    cost_model: LinearCostModel
    # Clean-pool / garbage-collection modelling --------------------------------
    clean_pool_bytes: int
    random_write_amplification: float
    sequential_write_amplification: float
    gc_penalty_ms: float
    gc_replenish_bytes_per_ms: float
    gc_read_threshold_fraction: float
    # Rough device cost in dollars, used by the cost-efficiency analysis.
    device_cost_dollars: float = 400.0


def _intel_cost_model() -> LinearCostModel:
    sector_transfer = 1.0 / (250 * 1024 * 1024) * 1000.0  # ~250 MB/s interface
    return LinearCostModel(
        random_read=IOCost(fixed_ms=0.15, per_byte_ms=sector_transfer),
        sequential_read=IOCost(fixed_ms=0.03, per_byte_ms=sector_transfer),
        random_write=IOCost(fixed_ms=0.25, per_byte_ms=sector_transfer * 2.0),
        sequential_write=IOCost(fixed_ms=0.08, per_byte_ms=1.0 / (70 * 1024 * 1024) * 1000.0),
        erase=IOCost(fixed_ms=0.0, per_byte_ms=0.0),
    )


def _transcend_cost_model() -> LinearCostModel:
    sector_transfer = 1.0 / (120 * 1024 * 1024) * 1000.0
    return LinearCostModel(
        random_read=IOCost(fixed_ms=0.45, per_byte_ms=sector_transfer),
        sequential_read=IOCost(fixed_ms=0.12, per_byte_ms=sector_transfer),
        random_write=IOCost(fixed_ms=4.0, per_byte_ms=sector_transfer * 4.0),
        sequential_write=IOCost(fixed_ms=0.5, per_byte_ms=1.0 / (28 * 1024 * 1024) * 1000.0),
        erase=IOCost(fixed_ms=0.0, per_byte_ms=0.0),
    )


# Geometries are scaled down from the paper's 32/80 GB devices so that pure
# Python experiments stay tractable; all BufferHash sizing is expressed as
# ratios, so results are unaffected (see DESIGN.md, substitutions table).
INTEL_SSD_PROFILE = SSDProfile(
    name="intel-x18m",
    geometry=DeviceGeometry(page_size=512, pages_per_block=256, num_blocks=8192),
    cost_model=_intel_cost_model(),
    clean_pool_bytes=2 * 1024 * 1024,
    random_write_amplification=8.0,
    sequential_write_amplification=0.1,
    gc_penalty_ms=6.0,
    gc_replenish_bytes_per_ms=768,
    gc_read_threshold_fraction=0.05,
    device_cost_dollars=400.0,
)

TRANSCEND_SSD_PROFILE = SSDProfile(
    name="transcend-ts32g",
    geometry=DeviceGeometry(page_size=512, pages_per_block=256, num_blocks=8192),
    cost_model=_transcend_cost_model(),
    clean_pool_bytes=1 * 1024 * 1024,
    random_write_amplification=12.0,
    sequential_write_amplification=0.2,
    gc_penalty_ms=15.0,
    gc_replenish_bytes_per_ms=900,
    gc_read_threshold_fraction=0.05,
    device_cost_dollars=150.0,
)


class SSD(StorageDevice):
    """Sector-addressable SSD with clean-pool / garbage-collection dynamics."""

    def __init__(
        self,
        profile: SSDProfile = INTEL_SSD_PROFILE,
        clock: Optional[SimulationClock] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(
            geometry=profile.geometry,
            clock=clock,
            name=name or profile.name,
        )
        self.profile = profile
        self._cost_model = profile.cost_model
        self._pool_bytes = float(profile.clean_pool_bytes)
        self._clean_credit_bytes = self._pool_bytes
        self._last_replenish_ms = self.clock.now_ms
        self.gc_stall_count = 0
        # Hysteresis: once the clean pool drops below the low watermark the
        # drive enters foreground-GC mode and stays there until background GC
        # has rebuilt the pool to the high watermark, as real SSD firmware does.
        self._gc_mode = False
        self._gc_high_watermark_fraction = 0.5
        if profile.gc_read_threshold_fraction >= self._gc_high_watermark_fraction:
            raise ValueError("the GC low watermark must sit below the high watermark")
        # (random, sequential) cost of reading one page, indexed by the flag.
        model = profile.cost_model
        self._page_read_costs = tuple(
            cost.cost(self._page_size) for cost in (model.random_read, model.sequential_read)
        )
        self._update_gc_mode()

    # -- Clean-pool bookkeeping --------------------------------------------------

    def _replenish_credit(self) -> None:
        """Background GC restores clean-pool credit during simulated idle time."""
        now = self.clock.now_ms
        elapsed = now - self._last_replenish_ms
        if elapsed > 0:
            self._clean_credit_bytes = min(
                self._pool_bytes,
                self._clean_credit_bytes + elapsed * self.profile.gc_replenish_bytes_per_ms,
            )
            self._last_replenish_ms = now

    def _consume_credit(self, nbytes: int, sequential: bool) -> float:
        """Consume clean-pool credit for a write; returns any GC stall penalty."""
        amplification = (
            self.profile.sequential_write_amplification
            if sequential
            else self.profile.random_write_amplification
        )
        self._clean_credit_bytes -= nbytes * amplification
        if self._clean_credit_bytes < 0:
            self._clean_credit_bytes = 0.0
        self._update_gc_mode()
        if self._gc_mode:
            # The drive is (nearly) out of pre-erased blocks: the operation
            # stalls behind foreground garbage collection.
            self.gc_stall_count += 1
            return self.profile.gc_penalty_ms
        return 0.0

    def _update_gc_mode(self) -> None:
        """Enter GC mode below the low watermark; leave above the high watermark.

        Sets read_page's steady costs too, for a full pool out of GC mode: a
        read replenishing it changes nothing (the next write stamps
        _last_replenish_ms itself), and only a write, which ends here, drains it.
        """
        fraction = self._clean_credit_bytes / self._pool_bytes
        if not self._gc_mode and fraction <= self.profile.gc_read_threshold_fraction:
            self._gc_mode = True
        elif self._gc_mode and fraction >= self._gc_high_watermark_fraction:
            self._gc_mode = False
        full = self._clean_credit_bytes == self._pool_bytes  # so out of GC mode, just set
        overridden = type(self)._read_latency is not SSD._read_latency  # then always asked
        self._steady_read_costs = self._page_read_costs if full and not overridden else None

    @property
    def in_gc_mode(self) -> bool:
        """Whether the drive is currently doing foreground garbage collection."""
        self._replenish_credit()
        self._update_gc_mode()
        return self._gc_mode

    @property
    def clean_pool_fraction(self) -> float:
        """Remaining clean-pool credit as a fraction of the full pool."""
        self._replenish_credit()
        return self._clean_credit_bytes / self._pool_bytes

    # -- Latency hooks -----------------------------------------------------------

    def _read_latency(self, nbytes: int, sequential: bool) -> float:
        self._replenish_credit()
        self._update_gc_mode()
        if nbytes == self._page_size:
            base = self._page_read_costs[sequential]
        else:
            model = self._cost_model
            base = (model.sequential_read if sequential else model.random_read).cost(nbytes)
        # Reads issued while the device is GC-starved also suffer: the flash
        # channels are busy relocating data.
        if self._gc_mode:
            base += self.profile.gc_penalty_ms
        return base

    def _write_latency(self, nbytes: int, sequential: bool) -> float:
        self._replenish_credit()
        base = self._cost_model.write_cost(nbytes, sequential=sequential)
        base += self._consume_credit(nbytes, sequential)
        return base
