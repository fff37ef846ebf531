"""Baseline indexes the paper compares CLAMs against.

* :class:`ExternalHashIndex` — a Berkeley-DB-style hash index kept on disk or
  SSD: one random page read per lookup, one random page write per
  insert/update.  This is the ``DB+SSD`` / ``DB+Disk`` baseline of §7.2.2.
* :class:`DRAMHashIndex` — an all-DRAM hash table (the RamSan-style
  comparison point for ops/s/$).

The §7.3.1 "no buffering" arm is not a baseline class: it is
``CLAM(use_buffering=False)``.  Both baselines expose the same ``insert`` /
``lookup`` / ``delete`` API and result records as :class:`repro.core.CLAM`, so
the workload runner and the WAN optimizer can swap them in without special
cases.
"""

from repro.baselines.disk_hash import ExternalHashIndex
from repro.baselines.dram_hash import DRAMHashIndex

__all__ = [
    "ExternalHashIndex",
    "DRAMHashIndex",
]
