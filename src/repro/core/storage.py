"""Placement of incarnations on storage devices.

Section 5.2 of the paper describes two layouts:

* on a raw **flash chip**, the chip is statically partitioned, one partition
  per super table, and each super table writes its incarnations circularly
  within its partition, erasing blocks as it wraps;
* on an **SSD**, interleaved writes to per-partition regions defeat the FTL,
  so BufferHash instead treats the whole device as a single circular log and
  appends incarnations from *all* super tables in flush order, remembering
  each incarnation's device address alongside its Bloom filter.

Both layouts are implemented here behind the common :class:`IncarnationStore`
interface used by :class:`~repro.core.supertable.SuperTable`.
"""

from __future__ import annotations

import abc
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.flashsim.device import StorageDevice
from repro.flashsim.flash_chip import FlashChip


class IncarnationStore(abc.ABC):
    """Writes incarnation page images to a device and reads them back."""

    @abc.abstractmethod
    def write_incarnation(self, pages: List[bytes]) -> Tuple[int, float]:
        """Append an incarnation; returns ``(address, latency_ms)``.

        ``address`` is the device page index of the incarnation's first page
        and remains valid until :meth:`release` is called for it.
        """

    @abc.abstractmethod
    def read_page(self, address: int, page_offset: int) -> Tuple[bytes, float]:
        """Read one page of a previously written incarnation."""

    @abc.abstractmethod
    def read_incarnation(self, address: int, num_pages: int) -> Tuple[List[bytes], float]:
        """Read all pages of an incarnation (used by partial-discard eviction)."""

    @abc.abstractmethod
    def release(self, address: int, num_pages: int) -> None:
        """Mark an incarnation's space as reclaimable."""


class CircularLogAllocator:
    """Head, wrap count and live regions of one circular page log over ``[low, high)``.

    The allocation state shared by :class:`WholeDeviceLogStore` and
    :class:`~repro.core.durable.DurableLogStore`.  Live regions never
    overlap, so with their start pages kept sorted only the predecessor and
    the successor of a position can block it: a free-space check is two
    bisect probes however many incarnations are live.
    """

    def __init__(self, low: int, high: int) -> None:
        self.low = low
        self.high = high
        self.head = low
        self.wraps = 0
        # start page -> number of pages, for regions that are currently live.
        self.live: Dict[int, int] = {}
        self._starts: List[int] = []

    def restore(self, head: int, wraps: int, live: Dict[int, int]) -> None:
        """Install state rebuilt by crash recovery."""
        self.head = head
        self.wraps = wraps
        self.live = dict(live)
        self._starts = sorted(self.live)

    def _blocker_end(self, start: int, num_pages: int) -> int:
        """0 when ``[start, start + num_pages)`` is free; otherwise where to
        resume the search (past the live region covering ``start``, or one
        page on when only a later region is in the way)."""
        starts = self._starts
        after = bisect_right(starts, start)
        covering_end = 0
        if after:
            address = starts[after - 1]
            covering_end = address + self.live[address]
        if covering_end <= start and (after == len(starts) or starts[after] >= start + num_pages):
            return 0
        return max(start + 1, covering_end)

    def is_free(self, start: int, num_pages: int) -> bool:
        return not self._blocker_end(start, num_pages)

    def advance(self, num_pages: int) -> Optional[int]:
        """Move the head past the next ``num_pages`` of free, contiguous space.

        Returns the start of that space (the caller marks it live once its
        write survived), or ``None`` when a whole lap found nothing free.
        """
        attempts = 0
        while attempts < self.high - self.low:
            if self.head + num_pages > self.high:
                self.head = self.low
                self.wraps += 1
            start = self.head
            blocking_end = self._blocker_end(start, num_pages)
            if not blocking_end:
                self.head = start + num_pages
                return start
            attempts += blocking_end - self.head
            self.head = blocking_end
        return None

    def mark_live(self, address: int, num_pages: int) -> None:
        if address not in self.live:
            insort(self._starts, address)
        self.live[address] = num_pages

    def release(self, address: int) -> Optional[int]:
        """Forget a live region; returns its length (``None`` if unknown)."""
        num_pages = self.live.pop(address, None)
        if num_pages is not None:
            del self._starts[bisect_left(self._starts, address)]
        return num_pages


class WholeDeviceLogStore(IncarnationStore):
    """Single circular log across the whole device (the SSD/disk layout).

    Incarnations from every super table are appended sequentially in flush
    order.  When the log head wraps around it reuses released regions; live
    regions that have not been released yet are skipped over (this can only
    happen transiently when super tables flush at different rates, and the
    skipped space becomes reusable as soon as its owner evicts).
    """

    def __init__(self, device: StorageDevice, reserve_fraction: float = 0.0) -> None:
        if not 0.0 <= reserve_fraction < 1.0:
            raise ValueError("reserve_fraction must be in [0, 1)")
        self.device = device
        self._total_pages = int(device.geometry.total_pages * (1.0 - reserve_fraction))
        if self._total_pages <= 0:
            raise ConfigurationError("device has no usable pages")
        self._log = CircularLogAllocator(0, self._total_pages)

    @property
    def capacity_pages(self) -> int:
        """Number of device pages the log may use."""
        return self._total_pages

    @property
    def wrap_count(self) -> int:
        """How many times the log head has wrapped around the device."""
        return self._log.wraps

    def write_incarnation(self, pages: List[bytes]) -> Tuple[int, float]:
        if not pages:
            raise ValueError("pages must be non-empty")
        if len(pages) > self._total_pages:
            raise ConfigurationError(
                f"incarnation of {len(pages)} pages exceeds device capacity "
                f"{self._total_pages} pages"
            )
        address = self._log.advance(len(pages))
        if address is None:
            raise ConfigurationError(
                "incarnation store is full: no released space to reuse; "
                "the flash is too small for the configured number of incarnations"
            )
        latency = self.device.write_range(address, pages)
        self._log.mark_live(address, len(pages))
        return address, latency

    def read_page(self, address: int, page_offset: int) -> Tuple[bytes, float]:
        return self.device.read_page(address + page_offset)

    def read_incarnation(self, address: int, num_pages: int) -> Tuple[List[bytes], float]:
        return self.device.read_range(address, num_pages)

    def release(self, address: int, num_pages: int) -> None:
        self._log.release(address)


class PartitionedDeviceStore(IncarnationStore):
    """Per-super-table partitions on a single SSD/disk — the layout §5.2 rejects.

    Each super table owns a statically assigned region of the device and
    writes its incarnations circularly within it.  Although every partition
    is written sequentially *from its own point of view*, consecutive flushes
    come from different super tables, so the device sees writes jumping
    between far-apart regions — which defeats the FTL's sequential-write
    optimisation exactly as the paper describes ("writes from different super
    tables to different partitions may be interleaved, resulting in a
    performance worse than a single sequential write").

    Provided for the layout ablation benchmark; production use should prefer
    :class:`WholeDeviceLogStore`.
    """

    def __init__(self, device: StorageDevice, num_partitions: int, pages_per_incarnation: int) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if pages_per_incarnation <= 0:
            raise ValueError("pages_per_incarnation must be positive")
        total_pages = device.geometry.total_pages
        partition_pages = total_pages // num_partitions
        if partition_pages < pages_per_incarnation:
            raise ConfigurationError(
                "each partition must hold at least one incarnation: "
                f"partition_pages={partition_pages}, needed={pages_per_incarnation}"
            )
        self.device = device
        self.num_partitions = num_partitions
        self.pages_per_incarnation = pages_per_incarnation
        self.partition_pages = partition_pages
        self.slots_per_partition = partition_pages // pages_per_incarnation
        self._next_slot: Dict[int, int] = {}
        self._partition_of_owner: Dict[int, int] = {}
        self._next_partition = 0

    def _partition_for(self, owner_id: int) -> int:
        if owner_id not in self._partition_of_owner:
            if self._next_partition >= self.num_partitions:
                raise ConfigurationError("more super tables than partitions")
            self._partition_of_owner[owner_id] = self._next_partition
            self._next_partition += 1
        return self._partition_of_owner[owner_id]

    def write_incarnation_for(self, owner_id: int, pages: List[bytes]) -> Tuple[int, float]:
        """Write an incarnation into ``owner_id``'s partition slot ring."""
        if len(pages) > self.pages_per_incarnation:
            raise ConfigurationError(
                f"incarnation has {len(pages)} pages but slots hold {self.pages_per_incarnation}"
            )
        partition = self._partition_for(owner_id)
        slot = self._next_slot.get(partition, 0)
        address = partition * self.partition_pages + slot * self.pages_per_incarnation
        # Writing page-by-page (each partition maintains its own write point)
        # prevents the device from recognising one long sequential stream.
        latency = 0.0
        for offset, image in enumerate(pages):
            latency += self.device.write_page(address + offset, image)
        self._next_slot[partition] = (slot + 1) % self.slots_per_partition
        return address, latency

    def write_incarnation(self, pages: List[bytes]) -> Tuple[int, float]:
        return self.write_incarnation_for(0, pages)

    def read_page(self, address: int, page_offset: int) -> Tuple[bytes, float]:
        return self.device.read_page(address + page_offset)

    def read_incarnation(self, address: int, num_pages: int) -> Tuple[List[bytes], float]:
        return self.device.read_range(address, num_pages)

    def release(self, address: int, num_pages: int) -> None:
        # Slots are reused in place when the partition ring wraps.
        return None


class MultiDeviceLogStore(IncarnationStore):
    """Distributes super tables across several SSDs (§5.2, last paragraph).

    "Partitioning also naturally supports using multiple SSDs in parallel, by
    distributing partitions to different SSDs."  Each backing device runs its
    own whole-device circular log; a super table's incarnations always go to
    the device its partition is assigned to (round robin by owner id), so
    each device still sees purely sequential incarnation writes.

    Addresses returned to callers are globally unique: the owning device's
    index is encoded in the high part of the address.
    """

    def __init__(self, devices: List[StorageDevice], reserve_fraction: float = 0.0) -> None:
        if not devices:
            raise ConfigurationError("at least one device is required")
        clock = devices[0].clock
        for device in devices[1:]:
            if device.clock is not clock:
                raise ConfigurationError("all devices must share one simulation clock")
        self.devices = list(devices)
        self._stores = [WholeDeviceLogStore(device, reserve_fraction) for device in devices]
        # Address stride large enough to keep per-device page indexes disjoint.
        self._stride = max(device.geometry.total_pages for device in devices)

    def _device_index_for_owner(self, owner_id: int) -> int:
        return owner_id % len(self._stores)

    def _encode(self, device_index: int, address: int) -> int:
        return device_index * self._stride + address

    def _decode(self, address: int) -> Tuple[int, int]:
        return address // self._stride, address % self._stride

    def write_incarnation_for(self, owner_id: int, pages: List[bytes]) -> Tuple[int, float]:
        """Append an incarnation to the device owning ``owner_id``'s partition."""
        device_index = self._device_index_for_owner(owner_id)
        address, latency = self._stores[device_index].write_incarnation(pages)
        return self._encode(device_index, address), latency

    def write_incarnation(self, pages: List[bytes]) -> Tuple[int, float]:
        return self.write_incarnation_for(0, pages)

    def read_page(self, address: int, page_offset: int) -> Tuple[bytes, float]:
        device_index, local = self._decode(address)
        return self._stores[device_index].read_page(local, page_offset)

    def read_incarnation(self, address: int, num_pages: int) -> Tuple[List[bytes], float]:
        device_index, local = self._decode(address)
        return self._stores[device_index].read_incarnation(local, num_pages)

    def release(self, address: int, num_pages: int) -> None:
        device_index, local = self._decode(address)
        self._stores[device_index].release(local, num_pages)


class PartitionedChipStore(IncarnationStore):
    """Per-partition circular layout on a raw flash chip.

    The chip is divided into equal partitions, one per super table.  Each
    partition is written circularly; before reusing a slot the store erases
    the blocks that slot occupies (the erase-before-write constraint of raw
    NAND).  Partition boundaries and incarnation sizes must be block aligned
    so that erasing one slot never destroys a neighbouring incarnation.
    """

    def __init__(self, chip: FlashChip, num_partitions: int, pages_per_incarnation: int) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if pages_per_incarnation <= 0:
            raise ValueError("pages_per_incarnation must be positive")
        geometry = chip.geometry
        pages_per_block = geometry.pages_per_block
        if pages_per_incarnation % pages_per_block != 0 and pages_per_block % pages_per_incarnation != 0:
            raise ConfigurationError(
                "pages_per_incarnation must align with the flash block size "
                f"(pages_per_block={pages_per_block})"
            )
        total_pages = geometry.total_pages
        partition_pages = total_pages // num_partitions
        # Round partitions down to a whole number of blocks.
        partition_pages -= partition_pages % pages_per_block
        if partition_pages < pages_per_incarnation:
            raise ConfigurationError(
                "each partition must hold at least one incarnation: "
                f"partition_pages={partition_pages}, needed={pages_per_incarnation}"
            )
        self.chip = chip
        self.num_partitions = num_partitions
        self.pages_per_incarnation = pages_per_incarnation
        self.partition_pages = partition_pages
        self.slots_per_partition = partition_pages // pages_per_incarnation
        self._next_slot: List[int] = [0] * num_partitions
        self._next_partition_to_assign = 0
        # Super tables are assigned partitions lazily, in the order they first flush.
        self._partition_of_owner: Dict[int, int] = {}

    def partition_for_owner(self, owner_id: int) -> int:
        """Partition index assigned to ``owner_id`` (a super table index)."""
        if owner_id not in self._partition_of_owner:
            if self._next_partition_to_assign >= self.num_partitions:
                raise ConfigurationError("more super tables than chip partitions")
            self._partition_of_owner[owner_id] = self._next_partition_to_assign
            self._next_partition_to_assign += 1
        return self._partition_of_owner[owner_id]

    def _slot_address(self, partition: int, slot: int) -> int:
        return partition * self.partition_pages + slot * self.pages_per_incarnation

    def _erase_slot(self, address: int) -> float:
        """Erase every block overlapping the slot, if any of its pages are dirty."""
        pages_per_block = self.chip.geometry.pages_per_block
        first_block = address // pages_per_block
        last_block = (address + self.pages_per_incarnation - 1) // pages_per_block
        latency = 0.0
        for block in range(first_block, last_block + 1):
            block_start = block * pages_per_block
            dirty = any(
                self.chip.is_dirty(page)
                for page in range(block_start, block_start + pages_per_block)
            )
            if dirty:
                latency += self.chip.erase_block(block)
        return latency

    def write_incarnation_for(self, owner_id: int, pages: List[bytes]) -> Tuple[int, float]:
        """Write an incarnation inside ``owner_id``'s partition."""
        if len(pages) > self.pages_per_incarnation:
            raise ConfigurationError(
                f"incarnation has {len(pages)} pages but slots hold {self.pages_per_incarnation}"
            )
        partition = self.partition_for_owner(owner_id)
        slot = self._next_slot[partition]
        address = self._slot_address(partition, slot)
        latency = self._erase_slot(address)
        # Pad to the slot size so the layout stays block aligned.
        padded = list(pages) + [b""] * (self.pages_per_incarnation - len(pages))
        latency += self.chip.write_range(address, padded)
        self._next_slot[partition] = (slot + 1) % self.slots_per_partition
        return address, latency

    # The generic interface routes through owner 0; BufferHash uses
    # write_incarnation_for() directly so each super table stays in its partition.
    def write_incarnation(self, pages: List[bytes]) -> Tuple[int, float]:
        return self.write_incarnation_for(0, pages)

    def read_page(self, address: int, page_offset: int) -> Tuple[bytes, float]:
        return self.chip.read_page(address + page_offset)

    def read_incarnation(self, address: int, num_pages: int) -> Tuple[List[bytes], float]:
        return self.chip.read_range(address, num_pages)

    def release(self, address: int, num_pages: int) -> None:
        # Space is reclaimed by the erase that precedes the slot's reuse;
        # nothing to do eagerly.
        return None
