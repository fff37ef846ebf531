"""Storage substrate: simulated flash chips, SSDs, magnetic disks and DRAM.

The paper evaluates BufferHash on real SSDs (Intel X18-M and Transcend
TS32GSSD25) and a Hitachi 7K80 magnetic disk.  This package provides a
discrete-event *simulation* of those devices: every read, write and erase
advances a simulated clock by an amount derived from a linear cost model
(fixed initialisation cost plus a per-byte cost), with additional effects
for block erasure, garbage collection under write pressure and mechanical
seek latency.  All latencies reported by the rest of the library are in
simulated milliseconds.

Public entry points
-------------------
:class:`SimulationClock`
    Shared notion of simulated time.
:class:`ClockEnsemble`
    Aggregate read-only view over several shard clocks (cluster time = the
    slowest member, total work = the sum); used by :mod:`repro.service`.
:class:`FlashChip`
    A raw NAND flash chip with pages, erase blocks and an erase-before-write
    constraint; its erase sequence (``flash_chip._NandDevice``) is also the
    file-backed :class:`PersistentFlashDevice`'s.
:class:`SSD`
    Sector reads/writes whose garbage-collection pressure is a clean-pool
    credit model: random writes drain the pool, idle time refills it, and an
    empty pool stalls every operation (the §7.2.2 slowdown).
:class:`MagneticDisk`
    Seek + rotational latency model of a hard disk.
:class:`DRAMDevice`
    Near-zero-latency memory device used for cost-efficiency comparisons.
:class:`FaultInjector`
    Deterministic fault injection (crash-stop, seeded intermittent I/O
    errors, latency degradation) carried by every device; the substrate the
    service layer's failure handling is built on.
:data:`INTEL_SSD_PROFILE`, :data:`TRANSCEND_SSD_PROFILE`,
:data:`GENERIC_FLASH_CHIP_PROFILE`, :data:`MAGNETIC_DISK_PROFILE`
    Calibrated device parameter sets.
"""

from repro.flashsim.clock import ClockEnsemble, SimulationClock
from repro.flashsim.faults import FaultInjector, FaultMode
from repro.flashsim.latency import LinearCostModel, IOCost
from repro.flashsim.stats import IOStats, IOKind
from repro.flashsim.device import StorageDevice, DeviceGeometry
from repro.flashsim.flash_chip import FlashChip, FlashChipError
from repro.flashsim.ssd import SSD, SSDProfile, INTEL_SSD_PROFILE, TRANSCEND_SSD_PROFILE
from repro.flashsim.flash_chip import GENERIC_FLASH_CHIP_PROFILE, FlashChipProfile
from repro.flashsim.disk import MagneticDisk, DiskProfile, MAGNETIC_DISK_PROFILE
from repro.flashsim.dram import DRAMDevice, DRAM_PROFILE, DRAMProfile
from repro.flashsim.persistent import (
    FlashLayout,
    FlashPartition,
    PageState,
    PersistentFlashDevice,
    PERSISTENT_GEOMETRY,
)

__all__ = [
    "ClockEnsemble",
    "SimulationClock",
    "FaultInjector",
    "FaultMode",
    "LinearCostModel",
    "IOCost",
    "IOStats",
    "IOKind",
    "StorageDevice",
    "DeviceGeometry",
    "FlashChip",
    "FlashChipError",
    "FlashChipProfile",
    "GENERIC_FLASH_CHIP_PROFILE",
    "SSD",
    "SSDProfile",
    "INTEL_SSD_PROFILE",
    "TRANSCEND_SSD_PROFILE",
    "MagneticDisk",
    "DiskProfile",
    "MAGNETIC_DISK_PROFILE",
    "DRAMDevice",
    "DRAMProfile",
    "DRAM_PROFILE",
    "FlashLayout",
    "FlashPartition",
    "PageState",
    "PersistentFlashDevice",
    "PERSISTENT_GEOMETRY",
]
