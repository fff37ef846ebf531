"""Page-mapping flash translation layer (FTL).

An SSD hides its flash chips behind an FTL that maps logical sectors onto
physical flash pages.  This module implements a simple page-mapping FTL:

* logical writes always go to the head of a write log (so the flash only
  ever sees sequential programs within a block);
* superseded physical pages are marked invalid;
* when the pool of clean blocks runs low, a greedy garbage collector picks
  the block with the fewest valid pages, relocates the survivors and erases
  the block.

This is what produces the behaviour §7.2.2 of the paper observes on the
Intel SSD: a sustained stream of small random writes exhausts the clean
block pool, forcing garbage collection onto the critical path and slowing
*all* I/O — which is why the BDB-on-SSD baseline is slow even though raw
SSD reads are fast, while BufferHash's rare, large, sequential flushes
leave the SSD with plenty of idle clean blocks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.flashsim.flash_chip import FlashChip


class PageMappingFTL:
    """Log-structured page-mapping FTL over a single :class:`FlashChip`.

    Parameters
    ----------
    chip:
        The backing flash chip.
    overprovision_fraction:
        Fraction of physical capacity reserved for garbage collection head
        room.  Logical capacity is ``(1 - overprovision_fraction)`` of the
        physical capacity.
    gc_low_watermark_blocks:
        Garbage collection triggers when fewer than this many clean blocks
        remain.
    """

    def __init__(
        self,
        chip: FlashChip,
        overprovision_fraction: float = 0.1,
        gc_low_watermark_blocks: int = 2,
    ) -> None:
        if not 0.0 <= overprovision_fraction < 1.0:
            raise ValueError("overprovision_fraction must be in [0, 1)")
        if gc_low_watermark_blocks < 1:
            raise ValueError("gc_low_watermark_blocks must be at least 1")
        self.chip = chip
        geometry = chip.geometry
        self.pages_per_block = geometry.pages_per_block
        self.num_blocks = geometry.num_blocks
        physical_pages = geometry.total_pages
        self.logical_pages = int(physical_pages * (1.0 - overprovision_fraction))
        self.gc_low_watermark_blocks = gc_low_watermark_blocks

        # logical page -> physical page
        self._l2p: Dict[int, int] = {}
        # physical page -> logical page (only for valid pages)
        self._p2l: Dict[int, int] = {}
        self._invalid_pages: Set[int] = set()
        self._clean_blocks: List[int] = list(range(self.num_blocks))
        self._active_block: Optional[int] = None
        self._next_page_in_block = 0

        self.gc_runs = 0
        self.gc_pages_relocated = 0
        self.gc_latency_ms = 0.0

    # -- Introspection ---------------------------------------------------------

    def physical_page_of(self, logical_page: int) -> Optional[int]:
        """Physical location of ``logical_page``, or ``None`` if never written."""
        return self._l2p.get(logical_page)

    def _check_logical(self, logical_page: int) -> None:
        if not 0 <= logical_page < self.logical_pages:
            raise IndexError(
                f"logical page {logical_page} out of range (logical_pages={self.logical_pages})"
            )

    # -- Core operations -------------------------------------------------------

    def read(self, logical_page: int) -> tuple[bytes, float]:
        """Read a logical page; unwritten pages return empty payloads at read cost."""
        self._check_logical(logical_page)
        physical = self._l2p.get(logical_page)
        if physical is None:
            # The device still pays a media-access cost for an unmapped sector,
            # but no data is returned.
            latency = self.chip._read_latency(self.chip.geometry.page_size, sequential=False)
            self.chip.clock.advance(latency)
            return b"", latency
        return self.chip.read_page(physical)

    def write(self, logical_page: int, data: bytes) -> float:
        """Write a logical page at the log head; returns total latency including GC."""
        self._check_logical(logical_page)
        gc_latency = self._maybe_collect()
        physical, allocation_latency = self._allocate_page()
        write_latency = self.chip.write_page(physical, data, sequential=True)

        previous = self._l2p.get(logical_page)
        if previous is not None:
            self._invalid_pages.add(previous)
            self._p2l.pop(previous, None)
        self._l2p[logical_page] = physical
        self._p2l[physical] = logical_page
        return gc_latency + allocation_latency + write_latency

    def write_batch(self, logical_start: int, payloads: List[bytes]) -> float:
        """Write consecutive logical pages; they land sequentially at the log head."""
        total = 0.0
        for offset, data in enumerate(payloads):
            total += self.write(logical_start + offset, data)
        return total

    def trim(self, logical_page: int) -> None:
        """Discard a logical page (TRIM); its physical page becomes garbage."""
        self._check_logical(logical_page)
        physical = self._l2p.pop(logical_page, None)
        if physical is not None:
            self._invalid_pages.add(physical)
            self._p2l.pop(physical, None)

    # -- Allocation and garbage collection --------------------------------------

    def _allocate_page(self) -> tuple[int, float]:
        """Return the next physical page at the log head, opening a block if needed."""
        latency = 0.0
        if self._active_block is None or self._next_page_in_block >= self.pages_per_block:
            if not self._clean_blocks:
                latency += self._collect(force=True)
                if not self._clean_blocks:
                    raise RuntimeError("FTL out of space: garbage collection freed no blocks")
            self._active_block = self._clean_blocks.pop(0)
            self._next_page_in_block = 0
        physical = self._active_block * self.pages_per_block + self._next_page_in_block
        self._next_page_in_block += 1
        return physical, latency

    def _maybe_collect(self) -> float:
        """Run garbage collection if the clean pool is below the watermark."""
        if len(self._clean_blocks) < self.gc_low_watermark_blocks:
            return self._collect(force=False)
        return 0.0

    def _collect(self, force: bool) -> float:
        """Greedy garbage collection: reclaim the block with the fewest valid pages."""
        victim = self._pick_victim_block()
        if victim is None:
            return 0.0
        latency = 0.0
        start = victim * self.pages_per_block
        survivors: List[tuple[int, bytes]] = []
        for physical in range(start, start + self.pages_per_block):
            logical = self._p2l.get(physical)
            if logical is not None:
                payload, read_latency = self.chip.read_page(physical)
                latency += read_latency
                survivors.append((logical, payload))
                self._p2l.pop(physical, None)
                self._l2p.pop(logical, None)
            self._invalid_pages.discard(physical)
        latency += self.chip.erase_block(victim)
        self._clean_blocks.append(victim)
        self.gc_runs += 1
        self.gc_pages_relocated += len(survivors)
        # Relocate survivors through the normal write path (they go to the log head).
        for logical, payload in survivors:
            latency += self.write(logical, payload)
        self.gc_latency_ms += latency
        return latency

    def _pick_victim_block(self) -> Optional[int]:
        """Choose the block with the most invalid pages that is not the active block."""
        best_block: Optional[int] = None
        best_invalid = 0
        invalid_per_block: Dict[int, int] = {}
        for physical in self._invalid_pages:
            block = physical // self.pages_per_block
            invalid_per_block[block] = invalid_per_block.get(block, 0) + 1
        for block, invalid in invalid_per_block.items():
            if block == self._active_block:
                continue
            if invalid > best_invalid:
                best_invalid = invalid
                best_block = block
        return best_block
