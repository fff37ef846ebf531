"""Linear I/O cost model used throughout the storage simulator.

Section 6 of the paper models the cost of reading, writing and erasing
``x`` bytes of flash as a linear function of the transfer size::

    cost_read(x)  = a_r + b_r * x
    cost_write(x) = a_w + b_w * x
    cost_erase(x) = a_e + b_e * x

where the ``a`` terms capture the fixed per-I/O initialisation cost
(command setup, flash array access time, seek for disks) and the ``b``
terms capture the per-byte transfer cost.  The same shape fits magnetic
disks (the fixed term becomes seek + rotational latency) and DRAM (both
terms tiny), so the whole substrate shares this one model.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IOCost:
    """Fixed + per-byte cost of one I/O class, in milliseconds.

    Attributes
    ----------
    fixed_ms:
        Latency paid once per operation regardless of its size.
    per_byte_ms:
        Additional latency per byte transferred.
    """

    fixed_ms: float
    per_byte_ms: float

    def __post_init__(self) -> None:
        if self.fixed_ms < 0 or self.per_byte_ms < 0:
            raise ValueError("I/O cost components must be non-negative")

    def cost(self, nbytes: int) -> float:
        """Latency in milliseconds for an operation transferring ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.fixed_ms + self.per_byte_ms * nbytes


@dataclass(frozen=True)
class LinearCostModel:
    """Per-device collection of :class:`IOCost` entries.

    A device distinguishes four I/O classes: random reads, sequential reads,
    random writes and sequential writes, plus erase for flash.  Sequential
    operations are typically cheaper per byte because the fixed cost is paid
    once for a large transfer and the device can stream.
    """

    random_read: IOCost
    sequential_read: IOCost
    random_write: IOCost
    sequential_write: IOCost
    erase: IOCost

    def read_cost(self, nbytes: int, sequential: bool = False) -> float:
        """Latency of reading ``nbytes``."""
        model = self.sequential_read if sequential else self.random_read
        return model.cost(nbytes)

    def write_cost(self, nbytes: int, sequential: bool = False) -> float:
        """Latency of writing ``nbytes``."""
        model = self.sequential_write if sequential else self.random_write
        return model.cost(nbytes)

    def erase_cost(self, nbytes: int) -> float:
        """Latency of erasing ``nbytes`` (flash only; zero-cost models allowed)."""
        return self.erase.cost(nbytes)
