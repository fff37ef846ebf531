"""File-backed flash device with power-loss-realistic on-media framing.

This module gives the simulator a durable backend: a
:class:`PersistentFlashDevice` stores every page in an mmap-backed file using
a small per-page frame (status byte + payload length + CRC32), so state
survives process exit and — crucially — *partial* state survives a simulated
power cut:

* a write interrupted mid-page leaves a **torn** frame: half the payload with
  a deliberately mismatching CRC, exactly what a real NAND program aborted by
  power loss produces.  On reopen the frame fails its CRC and reads raise
  :class:`~repro.core.errors.TornPageError`;
* an erase interrupted mid-block leaves every frame in the block
  **erased-dirty**: the charge state is indeterminate, so the block refuses
  reads until it is erased again (the Simics generic-flash-memory model's
  "interrupted operation" state).

The file is carved into partitions by a declarative :class:`FlashLayout`
(frozen dataclasses, block-aligned): a one-block **superblock** partition for
the owner's mount metadata, a **checkpoint** partition for periodic snapshots
and a **log** partition holding the incarnation log.  The device itself is
policy-free — it only validates and exposes the layout; the CLAM recovery
path (:mod:`repro.core.recovery`) decides what lives where.

On-disk format (frozen by golden tests in ``tests/test_persistent_device.py``):

* file header, 64 bytes reserved: ``<8sIII`` = magic ``b"RFLASH\\x01\\x00"``,
  page_size, pages_per_block, num_blocks;
* one frame per page at ``64 + index * (page_size + 7)``: ``<BHI`` =
  status (0x00 erased / 0x01 written / 0x02 erased-dirty), payload length,
  CRC32 of the payload, then the payload padded with zeros to ``page_size``.

A brand-new file is all zeros (the file is created sparse), which decodes as
"every page erased" — no format pass is needed at create time and untouched
regions cost no disk space.
"""

from __future__ import annotations

import enum
import mmap
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import TornPageError
from repro.flashsim.clock import SimulationClock
from repro.flashsim.device import DeviceGeometry
from repro.flashsim.flash_chip import GENERIC_FLASH_CHIP_PROFILE, _NandDevice

#: File magic: "RFLASH" + format version 1 + a zero pad byte.
FILE_MAGIC = b"RFLASH\x01\x00"

#: Bytes reserved at the start of the file for the header.
FILE_HEADER_SIZE = 64

_FILE_HEADER = struct.Struct("<8sIII")

#: Per-page frame header: status byte, payload length, CRC32 of the payload.
_FRAME = struct.Struct("<BHI")

_STATUS_ERASED = 0x00
_STATUS_WRITTEN = 0x01
_STATUS_ERASED_DIRTY = 0x02

#: XOR mask applied to the stored CRC of a torn frame so verification fails
#: even for payloads whose truncated prefix happens to CRC identically.
_TORN_CRC_MASK = 0xA5A5A5A5


class PageState(enum.Enum):
    """Decoded state of one on-media page frame."""

    #: Never written since the last erase; reads return empty bytes.
    ERASED = "erased"
    #: Fully programmed; the payload passed its CRC check.
    VALID = "valid"
    #: Programming was interrupted mid-page; the frame fails its CRC.
    TORN = "torn"
    #: The containing block's erase was interrupted; unreadable until re-erased.
    ERASED_DIRTY = "erased-dirty"


@dataclass(frozen=True)
class FlashPartition:
    """One named, block-aligned region of a persistent device.

    Sizes are in erase blocks so a partition can always be erased without
    touching its neighbours.
    """

    name: str
    start_block: int
    num_blocks: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("partition name must be non-empty")
        if self.start_block < 0:
            raise ValueError("start_block must be non-negative")
        if self.num_blocks <= 0:
            raise ValueError("num_blocks must be positive")

    @property
    def end_block(self) -> int:
        """First block index *after* this partition."""
        return self.start_block + self.num_blocks

    def start_page(self, geometry: DeviceGeometry) -> int:
        return self.start_block * geometry.pages_per_block

    def num_pages(self, geometry: DeviceGeometry) -> int:
        return self.num_blocks * geometry.pages_per_block


@dataclass(frozen=True)
class FlashLayout:
    """A declarative, non-overlapping partitioning of a device.

    The standard layout (:meth:`default`) carves three partitions:

    ``superblock``
        One block of mount metadata for whoever owns the device.
    ``checkpoint``
        Periodic snapshots of the owner's DRAM state, so recovery replays a
        log *suffix* instead of the whole log.
    ``log``
        Everything else: the append-only incarnation log.
    """

    partitions: tuple[FlashPartition, ...]

    def __post_init__(self) -> None:
        names = [p.name for p in self.partitions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate partition names in {names}")
        ordered = sorted(self.partitions, key=lambda p: p.start_block)
        for before, after in zip(ordered, ordered[1:]):
            if before.end_block > after.start_block:
                raise ValueError(
                    f"partitions {before.name!r} and {after.name!r} overlap"
                )

    def partition(self, name: str) -> FlashPartition:
        for part in self.partitions:
            if part.name == name:
                return part
        raise KeyError(f"no partition named {name!r}")

    def validate(self, geometry: DeviceGeometry) -> None:
        """Check every partition fits on a device with ``geometry``."""
        for part in self.partitions:
            if part.end_block > geometry.num_blocks:
                raise ValueError(
                    f"partition {part.name!r} ends at block {part.end_block} "
                    f"but the device has only {geometry.num_blocks} blocks"
                )

    @classmethod
    def default(cls, geometry: DeviceGeometry) -> "FlashLayout":
        """Standard superblock / checkpoint / log carve-up of ``geometry``."""
        if geometry.num_blocks < 4:
            raise ValueError(
                "default layout needs at least 4 blocks "
                f"(got {geometry.num_blocks})"
            )
        checkpoint_blocks = max(2, geometry.num_blocks // 8)
        log_start = 1 + checkpoint_blocks
        return cls(
            partitions=(
                FlashPartition("superblock", start_block=0, num_blocks=1),
                FlashPartition(
                    "checkpoint", start_block=1, num_blocks=checkpoint_blocks
                ),
                FlashPartition(
                    "log",
                    start_block=log_start,
                    num_blocks=geometry.num_blocks - log_start,
                ),
            )
        )


#: Geometry for durable CLAM shards: 2 KB pages, 64-page blocks, 256 blocks
#: = 32 MiB of payload (~33 MiB file, created sparse).  Big enough for the
#: default CLAMConfig's flash partition with room for checkpoints.
PERSISTENT_GEOMETRY = DeviceGeometry(page_size=2048, pages_per_block=64, num_blocks=256)


class PersistentFlashDevice(_NandDevice):
    """An mmap/file-backed :class:`StorageDevice` with CRC-framed pages.

    Overwrites are allowed (the device behaves like an SSD exposing a flash
    translation layer) but :meth:`erase_block` is supported so log-structured
    owners can reclaim space block-at-a-time — and so interrupted erases are
    a reachable power-loss state.  The erase sequence itself is the chip's
    (``flash_chip._NandDevice``); here is only what it does to the frames on file.

    Latency modelling reuses the generic NAND cost model, so figure-series
    numbers are comparable between the in-memory and persistent backends;
    real file I/O time is *not* added to the simulated clock.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        geometry: Optional[DeviceGeometry] = None,
        clock: Optional[SimulationClock] = None,
        name: Optional[str] = None,
    ) -> None:
        self.path = os.fspath(path)
        existing = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        if existing:
            disk_geometry = self._read_header(self.path)
            if geometry is not None and geometry != disk_geometry:
                raise ValueError(
                    f"geometry mismatch for {self.path!r}: file has "
                    f"{disk_geometry}, caller requested {geometry}"
                )
            geometry = disk_geometry
        elif geometry is None:
            geometry = PERSISTENT_GEOMETRY
        super().__init__(
            GENERIC_FLASH_CHIP_PROFILE.cost_model,
            geometry=geometry,
            clock=clock,
            name=name or os.path.basename(self.path),
        )
        self.layout = FlashLayout.default(geometry)
        self.layout.validate(geometry)
        self._frame_stride = geometry.page_size + _FRAME.size
        self._file_size = FILE_HEADER_SIZE + geometry.total_pages * self._frame_stride
        self._closed = False
        self._open_backing(create=not existing)
        # Decoded-state cache: page index -> PageState.  Payload bytes are
        # cached in the inherited ``_pages`` dict; both are filled lazily so
        # opening a large device costs O(1), not a full-media scan.
        self._states: dict[int, PageState] = {}

    # -- Backing file ----------------------------------------------------------

    @staticmethod
    def _read_header(path: str) -> DeviceGeometry:
        with open(path, "rb") as fh:
            raw = fh.read(_FILE_HEADER.size)
        if len(raw) < _FILE_HEADER.size:
            raise ValueError(f"{path!r} is too short to be a persistent flash file")
        magic, page_size, pages_per_block, num_blocks = _FILE_HEADER.unpack(raw)
        if magic != FILE_MAGIC:
            raise ValueError(f"{path!r} is not a persistent flash file (bad magic)")
        return DeviceGeometry(
            page_size=page_size, pages_per_block=pages_per_block, num_blocks=num_blocks
        )

    def _open_backing(self, create: bool) -> None:
        flags = os.O_RDWR | (os.O_CREAT if create else 0)
        self._fd = os.open(self.path, flags, 0o644)
        try:
            if create:
                header = _FILE_HEADER.pack(
                    FILE_MAGIC,
                    self.geometry.page_size,
                    self.geometry.pages_per_block,
                    self.geometry.num_blocks,
                )
                os.pwrite(self._fd, header, 0)
            if os.fstat(self._fd).st_size < self._file_size:
                os.ftruncate(self._fd, self._file_size)
            self._mm = mmap.mmap(self._fd, self._file_size, access=mmap.ACCESS_WRITE)
        except BaseException:
            os.close(self._fd)
            raise

    def _frame_offset(self, page_index: int) -> int:
        return FILE_HEADER_SIZE + page_index * self._frame_stride

    # -- Frame encode/decode ---------------------------------------------------

    def _write_frame(self, page_index: int, status: int, payload: bytes, crc: int) -> None:
        offset = self._frame_offset(page_index)
        self._mm[offset : offset + _FRAME.size] = _FRAME.pack(status, len(payload), crc)
        end = offset + self._frame_stride
        payload_start = offset + _FRAME.size
        self._mm[payload_start : payload_start + len(payload)] = payload
        self._mm[payload_start + len(payload) : end] = bytes(
            self.geometry.page_size - len(payload)
        )

    def _decode_frame(self, page_index: int) -> tuple[PageState, bytes]:
        offset = self._frame_offset(page_index)
        status, length, crc = _FRAME.unpack_from(self._mm, offset)
        if status == _STATUS_ERASED:
            return PageState.ERASED, b""
        if status == _STATUS_ERASED_DIRTY:
            return PageState.ERASED_DIRTY, b""
        if status != _STATUS_WRITTEN or length > self.geometry.page_size:
            return PageState.TORN, b""
        payload_start = offset + _FRAME.size
        payload = bytes(self._mm[payload_start : payload_start + length])
        if zlib.crc32(payload) != crc:
            return PageState.TORN, b""
        return PageState.VALID, payload

    def page_state(self, page_index: int) -> PageState:
        """Decoded on-media state of ``page_index`` (no simulated I/O cost)."""
        self._check_page(page_index)
        state = self._states.get(page_index)
        if state is None:
            state, payload = self._decode_frame(page_index)
            self._states[page_index] = state
            if state is PageState.VALID:
                self._pages[page_index] = payload
        return state

    def erased_dirty_blocks(self) -> list[int]:
        """Blocks with an erased-dirty frame, found from the status bytes alone."""
        pages = self.geometry.pages_per_block
        statuses = self._mm[FILE_HEADER_SIZE : self._file_size : self._frame_stride]
        starts = range(0, len(statuses), pages)
        return [s // pages for s in starts if _STATUS_ERASED_DIRTY in statuses[s : s + pages]]

    def peek_page(self, page_index: int) -> Optional[bytes]:
        """Payload of a :attr:`PageState.VALID` page, else ``None``.

        Charges no simulated I/O — this models the recovery scan reading
        frame metadata from the spare (OOB) area; recovery then pays normal
        :meth:`read_page`/:meth:`read_range` costs for the pages it actually
        rebuilds state from.
        """
        if self.page_state(page_index) is not PageState.VALID:
            return None
        return self._pages[page_index]

    # -- StorageDevice payload hooks -------------------------------------------

    def _store_page(self, page_index: int, data: bytes) -> None:
        super()._store_page(page_index, data)
        data = self._pages[page_index]
        self._write_frame(page_index, _STATUS_WRITTEN, data, zlib.crc32(data))
        self._states[page_index] = PageState.VALID

    def _load_page(self, page_index: int) -> bytes:
        state = self.page_state(page_index)
        if state is PageState.ERASED:
            return b""
        if state is PageState.VALID:
            return self._pages[page_index]
        raise TornPageError(
            f"page {page_index} on device {self.name!r} is {state.value} "
            "(power-loss damage; recovery must discard it)"
        )

    def discard(self, start_page: int, num_pages: int) -> None:
        # Only the decoded caches go; the frames stay on the media, and the
        # next read of a page decodes its frame again.
        super().discard(start_page, num_pages)
        for page in range(start_page, start_page + num_pages):
            self._states.pop(page, None)

    # -- Power-loss side effects -----------------------------------------------

    def _apply_torn_write(self, page_index: int, data: bytes) -> None:
        # Half the payload landed; the stored CRC covers the *full* payload
        # XOR a mask, so verification fails even for the empty prefix.
        torn = data[: len(data) // 2]
        self._write_frame(
            page_index, _STATUS_WRITTEN, torn, zlib.crc32(data) ^ _TORN_CRC_MASK
        )
        self._pages.pop(page_index, None)
        self._states[page_index] = PageState.TORN

    def _apply_interrupted_erase(self, pages: range) -> None:
        for page in pages:
            self._mm[self._frame_offset(page)] = _STATUS_ERASED_DIRTY
            self._pages.pop(page, None)
            self._states[page] = PageState.ERASED_DIRTY

    def _clear_block(self, pages: range) -> None:
        begin = self._frame_offset(pages.start)
        end = self._frame_offset(pages.stop)
        self._mm[begin:end] = bytes(end - begin)
        for page in pages:
            self._pages.pop(page, None)
            self._states[page] = PageState.ERASED

    # -- Lifecycle -------------------------------------------------------------

    def flush(self) -> None:
        """Push all mmap'd writes to the backing file."""
        if not self._closed:
            self._mm.flush()

    def close(self) -> None:
        """Flush and release the mmap and file descriptor (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._mm.flush()
        finally:
            self._mm.close()
            os.close(self._fd)

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PersistentFlashDevice(path={self.path!r}, "
            f"geometry={self.geometry}, closed={self._closed})"
        )
