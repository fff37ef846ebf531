"""Raw NAND flash chip model.

A flash chip reads and writes at page granularity and erases at block
granularity.  Pages must be erased before they can be rewritten
(erase-before-write), and writing pages within a block out of order is
rejected, mirroring the constraints real NAND imposes and that the paper's
design principles P1-P3 (§4) are built around:

* P1 — random writes, in-place updates and sub-block deletions are very
  expensive (they force an erase of a 128-256 KB block);
* P2 — I/O happens at page granularity, so sub-page operations cost as much
  as a full page;
* P3 — the fixed initialisation cost of an I/O is amortised by large I/Os.

Latency parameters follow published NAND timings (page read ~0.06-0.25 ms,
page program ~0.2-0.8 ms, block erase ~1.5-2 ms) and match the flash-chip
series in Figure 4 of the paper.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import PowerLossError
from repro.flashsim.clock import SimulationClock
from repro.flashsim.device import DeviceGeometry, StorageDevice
from repro.flashsim.latency import IOCost, LinearCostModel
from repro.flashsim.stats import IOKind


class FlashChipError(RuntimeError):
    """Raised when an operation violates flash constraints (e.g. rewriting a dirty page)."""


@dataclass(frozen=True)
class FlashChipProfile:
    """Calibrated parameters for one flash chip model."""

    name: str
    geometry: DeviceGeometry
    cost_model: LinearCostModel


def _default_flash_cost_model() -> LinearCostModel:
    # Fixed costs reflect command setup + array access; per-byte costs reflect
    # the serial interface transfer rate (~25 MB/s read, ~8 MB/s program).
    read = IOCost(fixed_ms=0.025, per_byte_ms=1.0 / (25 * 1024 * 1024) * 1000.0)
    write = IOCost(fixed_ms=0.2, per_byte_ms=1.0 / (8 * 1024 * 1024) * 1000.0)
    erase = IOCost(fixed_ms=1.5, per_byte_ms=1.0 / (128 * 1024 * 1024) * 1000.0)
    return LinearCostModel(
        random_read=read,
        sequential_read=read,
        random_write=write,
        sequential_write=write,
        erase=erase,
    )


GENERIC_FLASH_CHIP_PROFILE = FlashChipProfile(
    name="generic-nand",
    geometry=DeviceGeometry(page_size=2048, pages_per_block=64, num_blocks=4096),
    cost_model=_default_flash_cost_model(),
)


class _NandDevice(StorageDevice):
    """The NAND cost model and the block-erase sequence, power cut included, that a
    raw chip and the file-backed device share; they differ in :meth:`_clear_block`."""

    def __init__(self, cost_model: LinearCostModel, **storage_device) -> None:
        super().__init__(**storage_device)
        self._cost_model = cost_model
        self.erase_count_per_block: dict[int, int] = {}

    def block_of(self, page_index: int) -> int:
        """Erase-block index containing ``page_index``."""
        self._check_page(page_index)
        return page_index // self.geometry.pages_per_block

    def erase_block(self, block_index: int) -> float:
        """Erase one block, clearing all of its pages; returns the latency."""
        if not 0 <= block_index < self.geometry.num_blocks:
            raise IndexError(
                f"block {block_index} out of range (num_blocks={self.geometry.num_blocks})"
            )
        latency = self.faults.check(self._cost_model.erase_cost(self.geometry.block_size))
        start = block_index * self.geometry.pages_per_block
        pages = range(start, start + self.geometry.pages_per_block)
        if self._power_cut(1, "erase") is not None:
            self._apply_interrupted_erase(pages)
            raise PowerLossError(
                f"power lost mid-erase of block {block_index} on device {self.name!r}"
            )
        self._record(IOKind.ERASE, self.geometry.block_size, latency, sequential=False)
        self._clear_block(pages)
        self.erase_count_per_block[block_index] = (
            self.erase_count_per_block.get(block_index, 0) + 1
        )
        return latency

    @abc.abstractmethod
    def _clear_block(self, pages: range) -> None:
        """Return the block's ``pages`` to the erased state."""

    def _apply_interrupted_erase(self, pages: range) -> None:
        """Durable side effect of an erase interrupted mid-block.

        The in-memory chip has no durable media: the block simply keeps its
        pre-erase contents (and stays dirty, so the erase must be retried
        after :meth:`heal`).  File-backed devices override this to mark every
        frame in the block erased-dirty so reopen sees the half-erased state.
        """

    def _read_latency(self, nbytes: int, sequential: bool) -> float:
        return self._cost_model.read_cost(nbytes, sequential=sequential)

    def _write_latency(self, nbytes: int, sequential: bool) -> float:
        return self._cost_model.write_cost(nbytes, sequential=sequential)


class FlashChip(_NandDevice):
    """A raw flash chip with erase-before-write semantics.

    The chip tracks a per-page clean/dirty bit.  Writing a dirty page raises
    :class:`FlashChipError`; callers (a BufferHash partition writing its
    incarnations circularly) must erase the containing block first.
    """

    def __init__(
        self,
        profile: FlashChipProfile = GENERIC_FLASH_CHIP_PROFILE,
        clock: Optional[SimulationClock] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(
            profile.cost_model,
            geometry=profile.geometry,
            clock=clock,
            name=name or profile.name,
        )
        self.profile = profile
        self._dirty: set[int] = set()

    # -- Flash-specific operations ---------------------------------------------

    def is_dirty(self, page_index: int) -> bool:
        """Whether ``page_index`` has been programmed since its last erase."""
        self._check_page(page_index)
        return page_index in self._dirty

    def _clear_block(self, pages: range) -> None:
        for page in pages:
            self._dirty.discard(page)
            self._pages.pop(page, None)

    def write_page(self, page_index: int, data: bytes, sequential: Optional[bool] = None) -> float:
        """Program one page; the page must be clean (erased)."""
        self._check_page(page_index)
        if page_index in self._dirty:
            raise FlashChipError(
                f"page {page_index} is dirty; erase block {self.block_of(page_index)} first"
            )
        latency = super().write_page(page_index, data, sequential=sequential)
        self._dirty.add(page_index)
        return latency

    def write_range(self, start_page: int, pages: list[bytes]) -> float:
        """Program consecutive pages sequentially; all must be clean."""
        for offset in range(len(pages)):
            if (start_page + offset) in self._dirty:
                raise FlashChipError(
                    f"page {start_page + offset} is dirty; cannot stream-write over it"
                )
        latency = super().write_range(start_page, pages)
        for offset in range(len(pages)):
            self._dirty.add(start_page + offset)
        return latency
