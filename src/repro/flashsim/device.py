"""Abstract storage device interface shared by flash, SSD, disk and DRAM models.

Every device exposes page/sector-granularity reads and writes, advances a
shared :class:`~repro.flashsim.clock.SimulationClock` by the latency of each
operation and records the operation in an :class:`~repro.flashsim.stats.IOStats`
instance.  Devices store actual payload bytes so that data structures built on
top of them (incarnations, external hash pages, the content cache) can be
verified end to end, not just timed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import PowerLossError
from repro.flashsim.clock import SimulationClock
from repro.flashsim.faults import FaultInjector, FaultMode
from repro.flashsim.stats import IOKind, IOStats
from repro.telemetry import trace as _trace

# Bound once: enum member access goes through the metaclass on every read,
# and these are tested on every simulated I/O.
_HEALTHY = FaultMode.HEALTHY
_READ = IOKind.READ
_WRITE = IOKind.WRITE
_INF = float("inf")


@dataclass(frozen=True)
class DeviceGeometry:
    """Size parameters of a block/page structured device.

    Attributes
    ----------
    page_size:
        Smallest unit of read/write in bytes (flash page or SSD/disk sector).
    pages_per_block:
        Pages per erase block (flash) or per track-equivalent grouping (disk).
        For devices without erase blocks this is purely informational.
    num_blocks:
        Number of erase blocks; total capacity is
        ``page_size * pages_per_block * num_blocks``.
    """

    page_size: int
    pages_per_block: int
    num_blocks: int

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.pages_per_block <= 0:
            raise ValueError("pages_per_block must be positive")
        if self.num_blocks <= 0:
            raise ValueError("num_blocks must be positive")

    @property
    def block_size(self) -> int:
        """Bytes per erase block."""
        return self.page_size * self.pages_per_block

    @property
    def total_pages(self) -> int:
        """Total number of pages on the device."""
        return self.pages_per_block * self.num_blocks

    @property
    def capacity_bytes(self) -> int:
        """Raw device capacity in bytes."""
        return self.page_size * self.total_pages


class StorageDevice(abc.ABC):
    """Base class for simulated storage devices.

    Subclasses implement :meth:`_read_latency` and :meth:`_write_latency`
    (and optionally erase behaviour); this base class owns the clock,
    statistics and the page payload store.
    """

    def __init__(
        self,
        geometry: DeviceGeometry,
        clock: Optional[SimulationClock] = None,
        name: str = "device",
    ) -> None:
        self.geometry = geometry
        # The geometry is immutable; its derived sizes are read on every I/O.
        self._page_size = geometry.page_size
        self._total_pages = geometry.total_pages
        self.clock = clock if clock is not None else SimulationClock()
        self.stats = IOStats()
        # read_page folds into this record itself; IOStats.reset zeroes it in place.
        self._read_totals = self.stats.totals[_READ]
        self.name = name
        #: Fault-injection hook gating every I/O (healthy by default); see
        #: :mod:`repro.flashsim.faults` and the :meth:`fail`/:meth:`heal`
        #: convenience methods below.
        self.faults = FaultInjector(device_name=name)
        # Sparse payload store: page index -> bytes.  Pages never written
        # read back as empty bytes, mirroring an erased device.
        self._pages: dict[int, bytes] = {}
        self._last_accessed_page: Optional[int] = None
        # read_page inlines the base _load_page only, and takes a page read's
        # (random, sequential) latency from here while a subclass sets it.
        self._inline_load = type(self)._load_page is StorageDevice._load_page
        self._steady_read_costs: Optional[tuple] = None

    # -- Payload handling ------------------------------------------------------

    def _check_page(self, page_index: int) -> None:
        if not 0 <= page_index < self._total_pages:
            raise IndexError(
                f"page {page_index} out of range for {self.name} "
                f"(total pages {self._total_pages})"
            )

    def _store_page(self, page_index: int, data: bytes) -> None:
        if len(data) > self._page_size:
            raise ValueError(
                f"payload of {len(data)} bytes exceeds page size "
                f"{self._page_size}"
            )
        self._pages[page_index] = bytes(data)

    def _load_page(self, page_index: int) -> bytes:
        return self._pages.get(page_index, b"")

    # -- Power-loss handling ---------------------------------------------------

    def _power_cut(self, units: int, kind: str) -> Optional[int]:
        """Advance an armed power-cut countdown by ``units`` I/O units.

        Returns the unit index at which power failed, or ``None``.  Split out
        so the common case (no countdown armed) stays one attribute check.
        """
        faults = self.faults
        if not faults.power_cut_armed:
            return None
        return faults.consume_io_units(units, kind)

    def _apply_torn_write(self, page_index: int, data: bytes) -> None:
        """Durable side effect of a write interrupted mid-page.

        In-memory devices have no durable media, so the interrupted write
        simply never lands; file-backed devices override this to leave a
        partially programmed frame that fails its CRC on reopen (see
        :class:`repro.flashsim.persistent.PersistentFlashDevice`).
        """

    # -- Lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release any resources the device holds.

        In-memory devices hold none, so this is a no-op; file-backed devices
        override it to flush and unmap their backing file deterministically.
        Safe to call more than once.
        """

    def __enter__(self) -> "StorageDevice":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- Recording helpers -----------------------------------------------------

    def _record(self, kind: IOKind, nbytes: int, latency_ms: float, sequential: bool) -> None:
        """Charge one completed I/O to the clock, the statistics and the tracer."""
        self.clock.advance(latency_ms)
        self.stats.add(kind, nbytes, latency_ms, sequential)
        tracer = _trace.ACTIVE
        if tracer is not None:
            # The clock already advanced past this I/O, so the event window is
            # [now - latency, now] on the device's own clock.
            tracer.event(
                "device." + kind.value,
                self.clock,
                duration_ms=latency_ms,
                device=self.name,
                nbytes=nbytes,
                sequential=sequential,
            )

    # -- Public API ------------------------------------------------------------

    def read_page(self, page_index: int) -> tuple[bytes, float]:
        """Read one page; returns ``(payload, latency_ms)``.

        One page read is the unit of work of a CLAM lookup, so the bounds
        check, the sequentiality heuristic, a steady latency, the healthy /
        no-countdown fast paths of the fault gate, ``clock.advance``'s check,
        the base :meth:`_load_page` and, while no tracer listens, the accounting
        (:meth:`_record`'s) are done inline; slow paths use the shared helpers.
        """
        if not 0 <= page_index < self._total_pages:
            self._check_page(page_index)
        previous = self._last_accessed_page
        self._last_accessed_page = page_index
        sequential = previous is not None and page_index == previous + 1
        page_size = self._page_size
        steady = self._steady_read_costs
        latency = steady[sequential] if steady else self._read_latency(page_size, sequential)
        faults = self.faults
        if faults.mode is not _HEALTHY:
            latency = faults.check(latency)
        if not 0.0 <= latency < _INF:
            raise ValueError(f"read latency {latency!r} on {self.name!r} is not finite and >= 0")
        if faults._power_countdown is not None and faults.consume_io_units(1, "read") is not None:
            raise PowerLossError(
                f"power lost during read of page {page_index} on device {self.name!r}"
            )
        if _trace.ACTIVE is not None:
            self._record(_READ, page_size, latency, sequential)
        else:
            self.clock._now_ms += latency
            totals = self._read_totals
            totals.ops += 1
            totals.nbytes += page_size
            totals.latency_ms += latency
            if latency > totals.max_latency_ms:
                totals.max_latency_ms = latency
            if sequential:
                totals.sequential += 1
        if self._inline_load:
            return self._pages.get(page_index, b""), latency
        return self._load_page(page_index), latency

    def write_page(self, page_index: int, data: bytes, sequential: Optional[bool] = None) -> float:
        """Write one page; returns the latency in milliseconds.

        ``sequential`` may be forced by the caller (e.g. an FTL that knows it
        is appending to a log); when omitted it is inferred from the access
        pattern.
        """
        self._check_page(page_index)
        previous = self._last_accessed_page
        self._last_accessed_page = page_index
        if sequential is None:
            sequential = previous is not None and page_index == previous + 1
        latency = self.faults.check(self._write_latency(self._page_size, sequential))
        if self._power_cut(1, "write") is not None:
            self._apply_torn_write(page_index, bytes(data))
            raise PowerLossError(
                f"power lost mid-write of page {page_index} on device {self.name!r}"
            )
        self._record(_WRITE, self._page_size, latency, sequential)
        self._store_page(page_index, data)
        return latency

    def read_range(self, start_page: int, num_pages: int) -> tuple[list[bytes], float]:
        """Read ``num_pages`` consecutive pages as one streaming operation."""
        if num_pages <= 0:
            raise ValueError("num_pages must be positive")
        self._check_page(start_page)
        self._check_page(start_page + num_pages - 1)
        nbytes = num_pages * self._page_size
        latency = self.faults.check(self._read_latency(nbytes, sequential=True))
        if self._power_cut(num_pages, "read") is not None:
            raise PowerLossError(
                f"power lost during streaming read at page {start_page} "
                f"on device {self.name!r}"
            )
        self._record(_READ, nbytes, latency, sequential=True)
        self._last_accessed_page = start_page + num_pages - 1
        return [self._load_page(start_page + i) for i in range(num_pages)], latency

    def write_range(self, start_page: int, pages: list[bytes]) -> float:
        """Write consecutive pages as one streaming (sequential) operation."""
        if not pages:
            raise ValueError("pages must be non-empty")
        self._check_page(start_page)
        self._check_page(start_page + len(pages) - 1)
        nbytes = len(pages) * self._page_size
        latency = self.faults.check(self._write_latency(nbytes, sequential=True))
        cut = self._power_cut(len(pages), "write")
        if cut is not None:
            # Pages before the cut completed and are durable; the cut page is
            # left torn (on devices that model torn pages).
            for offset in range(cut):
                self._store_page(start_page + offset, pages[offset])
            self._apply_torn_write(start_page + cut, bytes(pages[cut]))
            raise PowerLossError(
                f"power lost mid-write of page {start_page + cut} "
                f"(streaming write at page {start_page}) on device {self.name!r}"
            )
        self._record(_WRITE, nbytes, latency, sequential=True)
        # Footprint only: no payload to keep (``pages[0]`` spares a real write the ``any``).
        if not pages[0] and type(self)._store_page is StorageDevice._store_page and not any(pages):
            self.discard(start_page, len(pages))
        else:
            for offset, data in enumerate(pages):
                self._store_page(start_page + offset, data)
        self._last_accessed_page = start_page + len(pages) - 1
        return latency

    def discard(self, start_page: int, num_pages: int) -> None:
        """Drop the payloads of ``num_pages`` pages from ``start_page`` (TRIM).

        They read back as the erased image ``b""`` until written again.  It
        is free: the clock, the statistics, the fault gate and an armed
        power-cut countdown are untouched.
        """
        if num_pages <= 0:
            raise ValueError("num_pages must be positive")
        self._check_page(start_page)
        self._check_page(start_page + num_pages - 1)
        stored, span = self._pages, range(start_page, start_page + num_pages)
        # Walk the fewer: the range, or the pages that hold a payload.
        for page in span if num_pages <= len(stored) else [p for p in stored if p in span]:
            stored.pop(page, None)

    # -- Fault injection -------------------------------------------------------

    def fail(self) -> None:
        """Crash-stop the device: every I/O raises
        :class:`~repro.core.errors.DeviceFailedError` until :meth:`heal`."""
        self.faults.crash()

    def heal(self) -> None:
        """Clear any injected fault and resume healthy operation."""
        self.faults.heal()

    # -- Latency hooks ---------------------------------------------------------

    @abc.abstractmethod
    def _read_latency(self, nbytes: int, sequential: bool) -> float:
        """Latency in ms of reading ``nbytes`` with the given access pattern."""

    @abc.abstractmethod
    def _write_latency(self, nbytes: int, sequential: bool) -> float:
        """Latency in ms of writing ``nbytes`` with the given access pattern."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        gib = self.geometry.capacity_bytes / float(1 << 30)
        return f"{type(self).__name__}(name={self.name!r}, capacity={gib:.2f} GiB)"


def page_images(
    page_size: int, size: int, payload: Optional[bytes | bytearray | memoryview] = None
) -> list:
    """Page images for one ``size``-byte chunk: always at least one page.

    With a ``payload`` the images are zero-copy ``memoryview`` slices of it
    (the device copies each image it stores, as a real one would); without
    one, only the footprint is modelled and the images are empty.
    """
    count = max(1, -(-size // page_size))
    if payload is None:
        return [b""] * count
    view = memoryview(payload)
    return [view[start : start + page_size] for start in range(0, count * page_size, page_size)]


class OverwritingPageLog:
    """Regions appended at a head that wraps to page 0, each write evicting what it lands on.

    The FIFO space policy of the content cache and the dedup chunk store.  Not
    :class:`repro.core.storage.CircularLogAllocator`, which skips live regions
    and fails when a lap finds nothing free.
    """

    def __init__(self, device: StorageDevice) -> None:
        self.device = device
        self._head = 0
        # start page -> (number of pages, length in bytes, tag) of each live region
        self._live: dict[int, tuple[int, int, object]] = {}

    def append(self, size: int, payload=None, tag=None) -> tuple[int, float, list]:
        """Write one region; returns ``(address, latency_ms, tags of the regions evicted)``."""
        geometry = self.device.geometry
        if size > geometry.capacity_bytes:
            raise ValueError(f"chunk larger than the entire device {self.device.name!r}")
        images = page_images(geometry.page_size, size, payload)
        address = self._head if self._head + len(images) <= geometry.total_pages else 0
        # Appends are contiguous from page 0 on every lap, so an older region
        # overlapping this write either starts inside it or was already
        # dropped by the write just before.  Walk the fewer: its pages or the live regions.
        live, end = self._live, address + len(images)
        starts = range(address, end) if len(images) <= len(live) else sorted(live)
        overwritten = [start for start in starts if address <= start < end and start in live]
        evicted = [live.pop(start)[2] for start in overwritten]
        latency = self.device.write_range(address, images)
        # The head moves only now: a write the device refused changed no address.
        self._head = address + len(images)
        self._live[address] = (len(images), size, tag)
        return address, latency, evicted

    def forget(self, address: int) -> None:
        """Drop and discard the live region at ``address`` (the caller holds a newer copy)."""
        self.device.discard(address, self._live.pop(address)[0])

    def read(self, address: int) -> tuple[bytes, float]:
        """Read a live region back; ``KeyError`` when none starts at ``address``."""
        if address not in self._live:
            raise KeyError(f"no chunk stored at address {address}")
        num_pages, size, _tag = self._live[address]
        pages, latency = self.device.read_range(address, num_pages)
        return b"".join(pages)[:size], latency
