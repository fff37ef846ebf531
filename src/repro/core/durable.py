"""Durable on-flash formats for CLAM: superblock, incarnation log, checkpoints.

Three persistent structures live on a
:class:`~repro.flashsim.persistent.PersistentFlashDevice`, one per partition
of its :class:`~repro.flashsim.persistent.FlashLayout`:

``superblock``
    One JSON-encoded page recording the :class:`~repro.core.config.CLAMConfig`
    the CLAM was created with, so a bare ``DurableCLAM(path)`` reopens with
    identical structural parameters, and the ``page_format`` of the
    incarnation pages in the log, so a file in a layout this build does not
    read is refused at open, before a page is parsed.

``log``
    The incarnation log, managed by :class:`DurableLogStore`.  Each buffer
    flush appends one *record*: a header page (magic, owning super table,
    incarnation id, a device-wide monotone sequence number, page count)
    followed by the incarnation's data pages, all written as a single
    streaming write.  The address handed back to the super table points at
    the first *data* page, so a lookup reads device page ``address +
    offset`` exactly as on the in-memory stores.  Space is
    reclaimed circularly; blocks whose pages are all released get erased,
    which both models real flash housekeeping and makes interrupted erases a
    reachable power-loss state.

``checkpoint``
    Two ping-pong slots of serialised DRAM state (per-table incarnation
    handles, each with its Bloom column as a plain bit array; sorted delete
    lists; id counters; log-head position), written by
    :meth:`~repro.core.recovery.DurableCLAM.checkpoint`.
    Recovery restores the newest intact checkpoint and replays only the log
    records with a higher sequence number — the checkpoint+suffix path — or
    cold-rebuilds from the whole log when no checkpoint survives.  Alternating
    slots means a power cut mid-checkpoint can only tear the slot being
    written; the previous checkpoint stays intact.

Every page is CRC-framed by the device itself, so torn pages are detected at
read time; formats here add magics and a payload CRC over multi-page
checkpoints so *logically* incomplete structures are also detected.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib
from typing import Dict, List, Optional, Tuple

from repro.core import config as core_config
from repro.core.config import CLAMConfig
from repro.core.errors import ConfigurationError, TornPageError
from repro.core.incarnation import PAGE_FORMAT, IncarnationHandle
from repro.core.sliced_bloom import column_size
from repro.core.storage import CircularLogAllocator, IncarnationStore
from repro.core.supertable import SuperTable
from repro.flashsim.persistent import FlashPartition, PageState, PersistentFlashDevice

#: Magic prefix of the superblock page.
SUPERBLOCK_MAGIC = b"CLAMSUP1"
#: Magic prefix of an incarnation-log record header page.
RECORD_MAGIC = b"CLAMINCR"
#: Magic prefix of a checkpoint header page.
CHECKPOINT_MAGIC = b"CLAMCKPT"

#: Log record header: magic, owner table id, incarnation id, global sequence
#: number, number of data pages.
RECORD_HEADER = struct.Struct("<8sIIQI")

#: Checkpoint header: magic, sequence number, payload length, payload CRC32,
#: clean-shutdown flag.
CHECKPOINT_HEADER = struct.Struct("<8sQIIB")

#: Superblock keys of configuration fields that became constants of
#: :mod:`repro.core.config`, each with the value it takes there (``None``: the
#: device's page): older files carry them, and one holding another value was
#: written by a CLAM this build cannot reproduce.
RETIRED_SUPERBLOCK_FIELDS = {
    "buffer_utilization": core_config.BUFFER_UTILIZATION,
    "page_size_bytes": None,
    "memory_cost": {
        "bloom_probe_per_incarnation_ms": core_config.BLOOM_PROBE_PER_INCARNATION_MS,
        "bloom_sliced_query_ms": core_config.BLOOM_SLICED_QUERY_MS,
        "bloom_update_ms": core_config.BLOOM_UPDATE_MS,
        "buffer_op_ms": core_config.BUFFER_OP_MS,
        "delete_list_probe_ms": core_config.DELETE_LIST_PROBE_MS,
        "page_scan_ms": core_config.PAGE_SCAN_MS,
    },
}

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


# ---------------------------------------------------------------------------
# Superblock
# ---------------------------------------------------------------------------


def write_superblock(device: PersistentFlashDevice, config: CLAMConfig) -> float:
    """Write ``config`` to the first page of the superblock partition."""
    partition = device.layout.partition("superblock")
    fields = dataclasses.asdict(config)
    fields["page_format"] = PAGE_FORMAT
    payload = SUPERBLOCK_MAGIC + json.dumps(
        fields, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    if len(payload) > device.geometry.page_size:
        raise ConfigurationError(
            "CLAMConfig does not fit in one superblock page "
            f"({len(payload)} > {device.geometry.page_size} bytes)"
        )
    return device.write_page(partition.start_page(device.geometry), payload)


def read_superblock(device: PersistentFlashDevice) -> Tuple[CLAMConfig, float]:
    """Read the configuration back from the superblock partition."""
    partition = device.layout.partition("superblock")
    payload, latency = device.read_page(partition.start_page(device.geometry))
    if not payload.startswith(SUPERBLOCK_MAGIC):
        raise ConfigurationError(
            f"device {device.name!r} has no CLAM superblock; "
            "was it created by DurableCLAM?"
        )
    fields = json.loads(payload[len(SUPERBLOCK_MAGIC) :].decode("utf-8"))
    # Files written before the columnar page layout record no format: they
    # hold format 1, which has no reader any more.
    page_format = fields.pop("page_format", 1)
    if page_format != PAGE_FORMAT:
        raise ConfigurationError(
            f"device {device.name!r} holds incarnation pages in page_format "
            f"{page_format}; this build reads and writes page_format {PAGE_FORMAT} only"
        )
    for name, constant in RETIRED_SUPERBLOCK_FIELDS.items():
        if fields.pop(name, constant) != constant:
            raise ConfigurationError(
                f"device {device.name!r} was written with a {name} other than "
                f"{constant!r}, which this build no longer sets"
            )
    return CLAMConfig(**fields), latency


# ---------------------------------------------------------------------------
# Incarnation log
# ---------------------------------------------------------------------------


class DurableLogStore(IncarnationStore):
    """Circular incarnation log inside one partition of a persistent device.

    The layout mirrors :class:`~repro.core.storage.WholeDeviceLogStore` —
    one shared log, incarnations from every super table appended in flush
    order — with two durability additions: every incarnation is preceded by
    a self-describing header page (so recovery can find records by scanning),
    and fully released erase blocks are erased eagerly (so the log exercises
    real erase traffic and interrupted-erase states).
    """

    def __init__(self, device: PersistentFlashDevice) -> None:
        self.device = device
        self.partition: FlashPartition = device.layout.partition("log")
        geometry = device.geometry
        self._start = self.partition.start_page(geometry)
        #: Number of pages in the log partition.
        self.capacity_pages = self.partition.num_pages(geometry)
        self._end = self._start + self.capacity_pages
        # Live regions map header page -> whole record span (header + data).
        self._log = CircularLogAllocator(self._start, self._end)
        # owner (super table id) -> next incarnation id, mirroring each
        # SuperTable's counter so record headers carry the real id.
        self._owner_next_id: Dict[int, int] = {}
        self._next_seq = 1

    # -- Introspection ---------------------------------------------------------

    @property
    def wrap_count(self) -> int:
        return self._log.wraps

    @property
    def next_sequence(self) -> int:
        """Sequence number the next record will receive."""
        return self._next_seq

    @property
    def live_records(self) -> Dict[int, int]:
        """Header page -> record span, for live records (copy)."""
        return dict(self._log.live)

    # -- IncarnationStore API --------------------------------------------------

    def write_incarnation(self, owner_id: int, pages: List[bytes]) -> Tuple[int, float]:
        """Append one record for ``owner_id``; returns (data address, latency)."""
        if not pages:
            raise ValueError("pages must be non-empty")
        span = len(pages) + 1
        if span > self.capacity_pages:
            raise ConfigurationError(
                f"record of {span} pages exceeds log partition capacity "
                f"{self.capacity_pages} pages"
            )
        header_page = self._log.advance(span)
        if header_page is None:
            raise ConfigurationError(
                "incarnation log is full: no released space to reuse; "
                "the log partition is too small for the configured incarnations"
            )
        incarnation_id = self._owner_next_id.get(owner_id, 0)
        sequence = self._next_seq
        header = RECORD_HEADER.pack(
            RECORD_MAGIC, owner_id, incarnation_id, sequence, len(pages)
        )
        latency = self.device.write_range(header_page, [header] + list(pages))
        # State advances only after the write survived (a power cut raises
        # out of write_range; the reopened store rebuilds state from media).
        self._owner_next_id[owner_id] = incarnation_id + 1
        self._next_seq = sequence + 1
        self._log.mark_live(header_page, span)
        return header_page + 1, latency

    def release(self, address: int, num_pages: int) -> None:
        header_page = address - 1
        span = self._log.release(header_page) or num_pages + 1
        self._erase_reclaimable_blocks(header_page, span)

    def _erase_reclaimable_blocks(self, start: int, span: int) -> None:
        """Erase blocks of the just-released span that hold no live pages."""
        pages_per_block = self.device.geometry.pages_per_block
        first_block = start // pages_per_block
        last_block = (start + span - 1) // pages_per_block
        for block in range(first_block, last_block + 1):
            block_start = block * pages_per_block
            block_end = block_start + pages_per_block
            if block_start < self._start or block_end > self._end:
                continue
            if not self._log.is_free(block_start, pages_per_block):
                continue
            self.device.erase_block(block)

    # -- Recovery hooks --------------------------------------------------------

    def restore_state(
        self,
        next_seq: int,
        head: int,
        wraps: int,
        owner_next_ids: Dict[int, int],
        live: Dict[int, int],
    ) -> None:
        """Install state rebuilt by recovery (checkpoint and/or log scan)."""
        self._next_seq = max(self._next_seq, next_seq)
        if not self._start <= head <= self._end:
            head = self._start
        for owner, next_id in owner_next_ids.items():
            self._owner_next_id[owner] = max(self._owner_next_id.get(owner, 0), next_id)
        self._log.restore(head, wraps, live)


# ---------------------------------------------------------------------------
# Checkpoint serialisation
# ---------------------------------------------------------------------------


class _Writer:
    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def u16(self, value: int) -> None:
        self._parts.append(_U16.pack(value))

    def u32(self, value: int) -> None:
        self._parts.append(_U32.pack(value))

    def u64(self, value: int) -> None:
        self._parts.append(_U64.pack(value))

    def blob(self, data: bytes) -> None:
        self._parts.append(_U32.pack(len(data)))
        self._parts.append(data)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def _take(self, field: struct.Struct) -> int:
        (value,) = field.unpack_from(self._data, self._offset)
        self._offset += field.size
        return value

    def u16(self) -> int:
        return self._take(_U16)

    def u32(self) -> int:
        return self._take(_U32)

    def u64(self) -> int:
        return self._take(_U64)

    def blob(self) -> bytes:
        length = self.u32()
        data = self._data[self._offset : self._offset + length]
        if len(data) != length:
            raise ValueError("truncated checkpoint payload")
        self._offset += length
        return data


def serialize_checkpoint(store: DurableLogStore, tables: List[SuperTable]) -> bytes:
    """Serialise the recoverable DRAM state into one checkpoint payload.

    Buffers are deliberately *not* serialised: buffered-but-unflushed writes
    are DRAM-only by the acknowledged-write contract and die with the power.
    """
    writer = _Writer()
    writer.u64(store.next_sequence)
    writer.u64(store._log.head)
    writer.u32(store.wrap_count)
    owners = sorted(store._owner_next_id.items())
    writer.u32(len(owners))
    for owner, next_id in owners:
        writer.u32(owner)
        writer.u32(next_id)
    live = sorted(store.live_records.items())
    writer.u32(len(live))
    for header_page, span in live:
        writer.u64(header_page)
        writer.u32(span)
    writer.u32(len(tables))
    for table in tables:
        writer.u32(table.table_id)
        writer.u32(table.next_incarnation_id)
        deletes = table.delete_list_snapshot()
        writer.u32(len(deletes))
        for key in deletes:
            writer.blob(key)
        handles = table.incarnation_handles
        writer.u16(len(handles))
        for handle in handles:
            writer.u32(handle.incarnation_id)
            writer.u64(handle.address)
            writer.u32(handle.num_pages)
            writer.u32(handle.item_count)
            bits, bloom_items = table.column_bytes(handle)
            writer.u32(table.buffer.bloom_bits)
            writer.u16(table.buffer.bloom_hashes)
            writer.u32(bloom_items)
            writer.blob(bits)
    return writer.getvalue()


@dataclasses.dataclass(frozen=True)
class CheckpointTableState:
    """One super table's state as recorded in a checkpoint."""

    table_id: int
    next_incarnation_id: int
    delete_list: Tuple[bytes, ...]
    #: ``(handle, num_bits, num_hashes, item_count, bits)`` per incarnation:
    #: its Bloom filter as a plain bit array.
    incarnations: Tuple[Tuple[IncarnationHandle, int, int, int, bytes], ...]


@dataclasses.dataclass(frozen=True)
class CheckpointState:
    """A deserialised checkpoint."""

    sequence: int
    clean: bool
    next_seq: int
    head: int
    wraps: int
    owner_next_ids: Dict[int, int]
    live: Dict[int, int]
    tables: Tuple[CheckpointTableState, ...]


def deserialize_checkpoint(sequence: int, clean: bool, payload: bytes) -> CheckpointState:
    reader = _Reader(payload)
    next_seq = reader.u64()
    head = reader.u64()
    wraps = reader.u32()
    owner_next_ids = {}
    for _ in range(reader.u32()):
        owner = reader.u32()
        owner_next_ids[owner] = reader.u32()
    live = {}
    for _ in range(reader.u32()):
        header_page = reader.u64()
        live[header_page] = reader.u32()
    tables = []
    for _ in range(reader.u32()):
        table_id = reader.u32()
        next_id = reader.u32()
        deletes = tuple(reader.blob() for _ in range(reader.u32()))
        incarnations = []
        for _ in range(reader.u16()):
            incarnation_id = reader.u32()
            address = reader.u64()
            num_pages = reader.u32()
            item_count = reader.u32()
            num_bits = reader.u32()
            num_hashes = reader.u16()
            bloom_items = reader.u32()
            bits = reader.blob()
            if len(bits) != column_size(num_bits):
                raise ValueError("checkpointed Bloom column does not match num_bits")
            handle = IncarnationHandle(
                incarnation_id=incarnation_id,
                address=address,
                num_pages=num_pages,
                item_count=item_count,
            )
            incarnations.append((handle, num_bits, num_hashes, bloom_items, bits))
        tables.append(
            CheckpointTableState(
                table_id=table_id,
                next_incarnation_id=next_id,
                delete_list=deletes,
                incarnations=tuple(incarnations),
            )
        )
    return CheckpointState(
        sequence=sequence,
        clean=clean,
        next_seq=next_seq,
        head=head,
        wraps=wraps,
        owner_next_ids=owner_next_ids,
        live=live,
        tables=tuple(tables),
    )


# ---------------------------------------------------------------------------
# Checkpoint region (two ping-pong slots)
# ---------------------------------------------------------------------------


class CheckpointRegion:
    """Writes/reads checkpoints into the two halves of the checkpoint partition.

    Alternating slots by sequence number guarantees that a power cut during a
    checkpoint write can only damage the slot being written; the previous
    checkpoint in the other slot stays intact and recovery falls back to it.
    """

    def __init__(self, device: PersistentFlashDevice) -> None:
        self.device = device
        self.partition = device.layout.partition("checkpoint")
        geometry = device.geometry
        start = self.partition.start_page(geometry)
        total = self.partition.num_pages(geometry)
        self._slot_pages = total // 2
        if self._slot_pages < 2:
            raise ConfigurationError(
                "checkpoint partition too small: needs at least 2 pages per slot"
            )
        self._slot_starts = (start, start + self._slot_pages)
        self._next_sequence = 1

    @property
    def next_sequence(self) -> int:
        return self._next_sequence

    def note_sequence(self, sequence: int) -> None:
        """Recovery hook: future checkpoints must use a higher sequence."""
        self._next_sequence = max(self._next_sequence, sequence + 1)

    def write(self, payload: bytes, clean: bool) -> Tuple[int, float]:
        """Write one checkpoint; returns (sequence, latency_ms)."""
        sequence = self._next_sequence
        page_size = self.device.geometry.page_size
        chunks = [payload[i : i + page_size] for i in range(0, len(payload), page_size)]
        if 1 + len(chunks) > self._slot_pages:
            raise ConfigurationError(
                f"checkpoint of {len(payload)} bytes does not fit in a "
                f"{self._slot_pages}-page slot"
            )
        header = CHECKPOINT_HEADER.pack(
            CHECKPOINT_MAGIC, sequence, len(payload), zlib.crc32(payload), 1 if clean else 0
        )
        slot_start = self._slot_starts[sequence % 2]
        latency = self.device.write_range(slot_start, [header] + chunks)
        self._next_sequence = sequence + 1
        return sequence, latency

    def _read_slot(self, slot_start: int) -> Optional[Tuple[int, bool, bytes, float]]:
        """Decode one slot; None when absent, torn or CRC-inconsistent."""
        if self.device.page_state(slot_start) is not PageState.VALID:
            return None
        header, latency = self.device.read_page(slot_start)
        if len(header) < CHECKPOINT_HEADER.size or not header.startswith(CHECKPOINT_MAGIC):
            return None
        _magic, sequence, length, crc, clean = CHECKPOINT_HEADER.unpack_from(header, 0)
        page_size = self.device.geometry.page_size
        num_chunks = (length + page_size - 1) // page_size if length else 0
        if 1 + num_chunks > self._slot_pages:
            return None
        for offset in range(num_chunks):
            if self.device.page_state(slot_start + 1 + offset) is not PageState.VALID:
                return None
        try:
            chunks, read_latency = (
                self.device.read_range(slot_start + 1, num_chunks) if num_chunks else ([], 0.0)
            )
        except TornPageError:  # pragma: no cover - states checked above
            return None
        payload = b"".join(chunks)[:length]
        if len(payload) != length or zlib.crc32(payload) != crc:
            return None
        return sequence, bool(clean), payload, latency + read_latency

    def read_latest(self) -> Optional[Tuple[int, bool, bytes, float]]:
        """The intact checkpoint with the highest sequence, if any.

        Returns ``(sequence, clean, payload, latency_ms)``.
        """
        best: Optional[Tuple[int, bool, bytes, float]] = None
        total_latency = 0.0
        for slot_start in self._slot_starts:
            decoded = self._read_slot(slot_start)
            if decoded is None:
                continue
            total_latency += decoded[3]
            if best is None or decoded[0] > best[0]:
                best = decoded
        if best is None:
            return None
        return best[0], best[1], best[2], total_latency
