"""Placement of incarnations on storage devices.

Section 5.2 of the paper makes one placement decision per kind of device:

* a raw **flash chip** is statically partitioned, one partition per super
  table, and each super table writes its incarnations circularly within its
  partition, erasing blocks as it wraps (:class:`PartitionedChipStore`);
* on an **SSD**, interleaved writes to per-partition regions defeat the FTL
  (:class:`PartitionedDeviceStore`, kept for the ablation), so BufferHash
  instead treats the whole device as a single circular log and appends
  incarnations from *all* super tables in flush order, remembering each
  incarnation's device address alongside its Bloom filter
  (:class:`WholeDeviceLogStore`);
* several SSDs take the super tables round robin, each device running its
  own log (:class:`MultiDeviceLogStore`).

All of them, and the crash-safe log of :mod:`repro.core.durable`, implement
:class:`IncarnationStore`, whose one abstract method is handed the owning
super table; what each class adds is its write pattern.  There are two
allocation policies, each written once: :class:`CircularLogAllocator` for the
logs and the fixed slot ring of the partitioned layouts.
"""

from __future__ import annotations

import abc
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.flashsim.device import StorageDevice
from repro.flashsim.flash_chip import FlashChip


class IncarnationStore(abc.ABC):
    """Writes incarnation page images to a device and reads them back.

    Reads are served from ``self.device``; a layout that spans several
    devices overrides :meth:`page_device` and :meth:`read_incarnation`.
    """

    @abc.abstractmethod
    def write_incarnation(self, owner_id: int, pages: List[bytes]) -> Tuple[int, float]:
        """Write super table ``owner_id``'s next incarnation; returns ``(address, latency_ms)``.

        ``address`` is the device page index of the incarnation's first page
        and remains valid until :meth:`release` is called for it.  A layout
        shared by every super table ignores the owner; the others place by it.
        """

    def page_device(self, owner_id: int) -> Tuple[StorageDevice, int]:
        """``(device, base)`` of super table ``owner_id``'s incarnations: page
        ``p`` of the one at ``address`` is that device's page ``address - base + p``."""
        return self.device, 0

    def read_incarnation(self, address: int, num_pages: int) -> Tuple[List[bytes], float]:
        """Read all pages of an incarnation (used by partial-discard eviction)."""
        return self.device.read_range(address, num_pages)

    def release(self, address: int, num_pages: int) -> None:
        """Give an incarnation's space back: nothing reads it again.  A log
        reuses it and ``discard``s its pages, so the simulated media hold only
        live incarnations; fixed slots are overwritten in place."""


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

    def __init__(self, device: StorageDevice) -> None:
        self.device = device
        #: Number of device pages the log may use.
        self.capacity_pages = device.geometry.total_pages
        self._log = CircularLogAllocator(0, self.capacity_pages)

    @property
    def wrap_count(self) -> int:
        """How many times the log head has wrapped around the device."""
        return self._log.wraps

    def write_incarnation(self, owner_id: int, pages: List[bytes]) -> Tuple[int, float]:
        if not pages:
            raise ValueError("pages must be non-empty")
        if len(pages) > self.capacity_pages:
            raise ConfigurationError(
                f"incarnation of {len(pages)} pages exceeds device capacity "
                f"{self.capacity_pages} pages"
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

    def release(self, address: int, num_pages: int) -> None:
        released = self._log.release(address)
        if released is not None:
            self.device.discard(address, released)


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

    def __init__(self, devices: List[StorageDevice]) -> None:
        if not devices:
            raise ConfigurationError("at least one device is required")
        clock = devices[0].clock
        for device in devices[1:]:
            if device.clock is not clock:
                raise ConfigurationError("all devices must share one simulation clock")
        self.devices = list(devices)
        self._stores = [WholeDeviceLogStore(device) for device in devices]
        # Address stride large enough to keep per-device page indexes disjoint.
        self._stride = max(device.geometry.total_pages for device in devices)

    def write_incarnation(self, owner_id: int, pages: List[bytes]) -> Tuple[int, float]:
        index = owner_id % len(self._stores)
        address, latency = self._stores[index].write_incarnation(owner_id, pages)
        return index * self._stride + address, latency

    def page_device(self, owner_id: int) -> Tuple[StorageDevice, int]:
        index = owner_id % len(self._stores)
        return self.devices[index], index * self._stride

    def read_incarnation(self, address: int, num_pages: int) -> Tuple[List[bytes], float]:
        index, local = divmod(address, self._stride)
        return self._stores[index].read_incarnation(local, num_pages)

    def release(self, address: int, num_pages: int) -> None:
        index, local = divmod(address, self._stride)
        self._stores[index].release(local, num_pages)


class _SlotRingStore(IncarnationStore):
    """Equal per-super-table partitions, each a ring of fixed-size slots.

    The allocation policy of both partitioned layouts: an owner gets the next
    unassigned partition when it first flushes and then fills that
    partition's slots in turn, overwriting the oldest in place once the ring
    wraps — so there is nothing to release.  A subclass says only how one
    slot is written.
    """

    def __init__(
        self, device: StorageDevice, num_partitions: int, pages_per_incarnation: int, align: int = 1
    ) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if pages_per_incarnation <= 0:
            raise ValueError("pages_per_incarnation must be positive")
        # On a device with erase blocks (``align`` pages each) slots and
        # partitions must be block aligned, so that erasing one slot never
        # destroys a neighbouring incarnation.
        if pages_per_incarnation % align != 0 and align % pages_per_incarnation != 0:
            raise ConfigurationError(
                "pages_per_incarnation must align with the flash block size "
                f"(pages_per_block={align})"
            )
        partition_pages = device.geometry.total_pages // num_partitions
        partition_pages -= partition_pages % align
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
        self._next_slot: List[int] = [0] * num_partitions
        # Super tables are assigned partitions lazily, in the order they first flush.
        self._partition_of_owner: Dict[int, int] = {}

    def partition_for_owner(self, owner_id: int) -> int:
        """Partition index assigned to ``owner_id`` (a super table index)."""
        partition = self._partition_of_owner.get(owner_id)
        if partition is None:
            partition = len(self._partition_of_owner)
            if partition >= self.num_partitions:
                raise ConfigurationError("more super tables than partitions")
            self._partition_of_owner[owner_id] = partition
        return partition

    def write_incarnation(self, owner_id: int, pages: List[bytes]) -> Tuple[int, float]:
        if len(pages) > self.pages_per_incarnation:
            raise ConfigurationError(
                f"incarnation has {len(pages)} pages but slots hold {self.pages_per_incarnation}"
            )
        partition = self.partition_for_owner(owner_id)
        slot = self._next_slot[partition]
        address = partition * self.partition_pages + slot * self.pages_per_incarnation
        latency = self._write_slot(address, pages)
        self._next_slot[partition] = (slot + 1) % self.slots_per_partition
        return address, latency

    @abc.abstractmethod
    def _write_slot(self, address: int, pages: List[bytes]) -> float:
        """Write ``pages`` into the slot starting at ``address``; returns the latency."""


class PartitionedDeviceStore(_SlotRingStore):
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

    def _write_slot(self, address: int, pages: List[bytes]) -> float:
        # Writing page-by-page (each partition maintains its own write point)
        # prevents the device from recognising one long sequential stream.
        latency = 0.0
        for offset, image in enumerate(pages):
            latency += self.device.write_page(address + offset, image)
        return latency


class PartitionedChipStore(_SlotRingStore):
    """Per-partition circular layout on a raw flash chip.

    The chip is divided into equal partitions, one per super table.  Each
    partition is written circularly; before reusing a slot the store erases
    the blocks that slot occupies (the erase-before-write constraint of raw
    NAND) — that erase is what reclaims space, so nothing happens eagerly on
    release.  Partition boundaries and incarnation sizes are block aligned.
    """

    def __init__(self, chip: FlashChip, num_partitions: int, pages_per_incarnation: int) -> None:
        super().__init__(chip, num_partitions, pages_per_incarnation, chip.geometry.pages_per_block)

    def _write_slot(self, address: int, pages: List[bytes]) -> float:
        chip = self.device
        pages_per_block = chip.geometry.pages_per_block
        latency = 0.0
        # Erase every block overlapping the slot that has a dirty page.
        first_block = address // pages_per_block
        last_block = (address + self.pages_per_incarnation - 1) // pages_per_block
        for block in range(first_block, last_block + 1):
            block_start = block * pages_per_block
            if any(
                chip.is_dirty(page) for page in range(block_start, block_start + pages_per_block)
            ):
                latency += chip.erase_block(block)
        # Pad to the slot size so the layout stays block aligned.
        padded = list(pages) + [b""] * (self.pages_per_incarnation - len(pages))
        return latency + chip.write_range(address, padded)
