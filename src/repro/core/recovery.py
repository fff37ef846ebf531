"""Crash recovery for CLAMs on persistent flash: DurableCLAM.

The paper's robustness argument (§5) is that flash-resident incarnations are
*persistent*: after a crash only the in-DRAM buffers are lost, and the
hashtable can be rebuilt from flash.  :class:`DurableCLAM` realises that
contract on a :class:`~repro.flashsim.persistent.PersistentFlashDevice`:

* **Acknowledged writes survive.**  A write is acknowledged once the
  incarnation flush containing it completed (the log record's streaming
  write returned).  Recovery re-registers every such incarnation, so the
  crash-at-every-I/O sweep in ``tests/test_crash_recovery.py`` asserts zero
  acknowledged-write loss at every possible power-cut point.
* **Buffered writes die with the power.**  Inserts still sitting in a DRAM
  buffer (and delete-list entries newer than the last checkpoint) are lost;
  the reopened CLAM reports this via a typed :class:`CrashRecoveryReport`
  instead of pretending nothing happened.

Recovery procedure, on opening an existing device file:

1. **Repair interrupted erases** — any block with erased-dirty pages (power
   failed mid-erase) is erased again before use.
2. **Restore the newest intact checkpoint**, if any: per-table incarnation
   handles with their Bloom columns (plain bit arrays, put back with
   ``append_column``), delete lists and id counters come back without
   touching any data page.  Each checkpointed incarnation is verified against
   the media (header page must still carry the matching record, no page torn
   or overwritten) before it is trusted.
3. **Replay the log suffix** — records with a sequence number the checkpoint
   has not seen.  Overlapping claims on the same pages are resolved newest
   sequence first; records with torn tails (the flush the power cut
   interrupted) are discarded.  Surviving records are re-indexed oldest first
   per table: their pages are read, and the flush's writer (``append_keys``)
   puts the page keys' words in their Bloom columns.  That filter is narrower
   than the flush's (no key deleted from the buffer, no update counted
   twice): the same answers, possibly other charged costs.
4. **Trim** each table to its ``max_incarnations`` newest incarnations (an
   eviction that happened after the last checkpoint must not resurrect extra
   incarnations past the configured window).

With no checkpoint the same machinery cold-rebuilds from the whole log —
correct but paying one streaming read per surviving incarnation, which is
exactly the recovery-time difference ``benchmarks/bench_recovery.py``
measures.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, List, Optional, Tuple, Union

from repro.core.clam import CLAM
from repro.core.config import CLAMConfig
from repro.core.durable import (
    RECORD_HEADER,
    RECORD_MAGIC,
    CheckpointRegion,
    CheckpointState,
    DurableLogStore,
    deserialize_checkpoint,
    read_superblock,
    serialize_checkpoint,
    write_superblock,
)
from repro.core.errors import ConfigurationError
from repro.core.hashing import as_digest
from repro.core.incarnation import IncarnationHandle, iter_page_entries
from repro.core.results import InsertResult
from repro.core.supertable import SuperTable
from repro.flashsim.clock import SimulationClock
from repro.flashsim.persistent import PageState, PersistentFlashDevice
from repro.flashsim.device import DeviceGeometry
from repro.telemetry.events import EventLog


@dataclasses.dataclass(frozen=True)
class CrashRecoveryReport:
    """What recovery found and rebuilt when reopening a durable CLAM.

    Attributes
    ----------
    path:
        Backing file the CLAM was reopened from.
    clean_shutdown:
        True when the last session closed cleanly (final checkpoint carries
        the clean flag and no log record postdates it) — nothing was lost.
    may_have_lost_buffered_writes:
        The inverse contract statement: after an unclean shutdown, inserts
        that were still buffered in DRAM (never flushed to an incarnation)
        are gone, as are delete-list entries newer than the checkpoint.
    checkpoint_seq:
        Sequence of the checkpoint recovery restored from (None = cold
        rebuild from the log alone).
    incarnations_from_checkpoint:
        Incarnations restored straight from checkpointed handles + Bloom
        bits, without reading their data pages.
    log_records_replayed:
        Log-suffix records re-indexed by reading their pages.
    entries_rebuilt:
        Key/value entries re-indexed from those pages.
    pages_scanned:
        Log-partition pages examined by the recovery scan.
    torn_pages_discarded:
        Pages whose CRC framing failed (torn writes / half-programmed pages).
    stale_records_discarded:
        Record headers superseded by newer records claiming the same pages.
    interrupted_erase_blocks:
        Blocks found erased-dirty (power failed mid-erase) and re-erased.
    tables_restored:
        Super tables that came back with at least one incarnation.
    delete_list_entries:
        Lazy-delete entries restored from the checkpoint.
    recovery_io_ms:
        Simulated milliseconds of device I/O spent recovering.
    wall_time_s:
        Real (host) seconds recovery took.
    """

    path: str
    clean_shutdown: bool
    may_have_lost_buffered_writes: bool
    checkpoint_seq: Optional[int]
    incarnations_from_checkpoint: int
    log_records_replayed: int
    entries_rebuilt: int
    pages_scanned: int
    torn_pages_discarded: int
    stale_records_discarded: int
    interrupted_erase_blocks: int
    tables_restored: int
    delete_list_entries: int
    recovery_io_ms: float
    wall_time_s: float

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class _LogRecord:
    """One parsed incarnation-record header found by the log scan."""

    header_page: int
    owner: int
    incarnation_id: int
    sequence: int
    num_pages: int

    @property
    def data_address(self) -> int:
        return self.header_page + 1

    @property
    def span(self) -> Tuple[int, int]:
        """Half-open page interval the whole record occupies."""
        return self.header_page, self.header_page + 1 + self.num_pages


def _overlaps(span: Tuple[int, int], claimed: List[Tuple[int, int]]) -> bool:
    start, end = span
    return any(start < c_end and c_start < end for c_start, c_end in claimed)


def _read_record(device: PersistentFlashDevice, page: int) -> Optional[_LogRecord]:
    """The record whose header is on ``page`` (read without charging), or ``None``."""
    payload = device.peek_page(page)
    if payload is None or len(payload) < RECORD_HEADER.size or not payload.startswith(RECORD_MAGIC):
        return None
    return _LogRecord(page, *RECORD_HEADER.unpack_from(payload, 0)[1:])


class DurableCLAM(CLAM):
    """A CLAM persisted on a file-backed flash device, with crash recovery.

    Opening a path that does not exist (or is empty) creates a fresh device:
    the configuration is stamped into the superblock partition and the CLAM
    starts empty.  Opening an existing file runs the recovery procedure
    described in the module docstring and exposes its findings as
    :attr:`recovery_report`.

    Use as a context manager (or call :meth:`close`) so buffers are flushed,
    a final clean checkpoint is written and the mmap is released::

        with DurableCLAM("shard0.clam") as clam:
            clam.insert(b"key", b"value")
        # reopen: nothing lost
        with DurableCLAM("shard0.clam") as clam:
            assert clam.get(b"key") == b"value"

    Set ``CLAMConfig.checkpoint_interval_flushes`` (e.g. via
    ``CLAMConfig.scaled(checkpoint_interval_flushes=64)``) to also checkpoint
    periodically during operation, so recovery after a hard power cut replays
    a short log suffix instead of cold-rebuilding every incarnation.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        config: Optional[CLAMConfig] = None,
        geometry: Optional[DeviceGeometry] = None,
        clock: Optional[SimulationClock] = None,
        name: Optional[str] = None,
    ) -> None:
        self.path = os.fspath(path)
        existing = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        device = PersistentFlashDevice(self.path, geometry=geometry, clock=clock, name=name)
        try:
            if existing:
                stored_config, _latency = read_superblock(device)
                if config is not None and config != stored_config:
                    raise ConfigurationError(
                        f"configuration mismatch for {self.path!r}: the superblock "
                        "records different parameters; open without an explicit "
                        "config to adopt the stored one"
                    )
                config = stored_config
            else:
                config = config if config is not None else CLAMConfig.scaled()
                if not config.use_buffering:
                    raise ConfigurationError(
                        "DurableCLAM requires use_buffering=True (the unbuffered "
                        "ablation keeps its data in DRAM and cannot be recovered)"
                    )
                write_superblock(device, config)
        except BaseException:
            device.close()
            raise
        store = DurableLogStore(device)
        super().__init__(config=config, storage=device, store=store)
        self.log_store = store
        self.checkpoints = CheckpointRegion(device)
        self.events = EventLog(clock=self.clock)
        self._checkpoint_every = config.checkpoint_interval_flushes
        self._flushes_since_checkpoint = 0
        self._closed = False
        #: Populated when the CLAM was reopened from an existing file.
        self.recovery_report: Optional[CrashRecoveryReport] = None
        if existing:
            self.recovery_report = self._recover()

    # -- Properties ------------------------------------------------------------

    @property
    def persistent_device(self) -> PersistentFlashDevice:
        """The file-backed device (typed accessor for callers)."""
        return self.device  # type: ignore[return-value]

    @property
    def closed(self) -> bool:
        return self._closed

    # -- Recovery --------------------------------------------------------------

    def _recover(self) -> CrashRecoveryReport:
        device = self.persistent_device
        wall_start = time.perf_counter()
        io_start_ms = self.clock.now_ms
        self.events.record("crash_recovery_started", path=self.path)

        interrupted_blocks = self._repair_interrupted_erases()
        checkpoint = self._load_checkpoint()
        checkpoint_cutoff = checkpoint.next_seq if checkpoint is not None else 1

        records, pages_scanned, torn_pages = self._scan_log()
        for page in torn_pages:
            self.events.record("torn_page_discarded", page=page, device=device.name)

        # Newest-first overlap resolution: a page belongs to the record with
        # the highest sequence number that claims it.
        records.sort(key=lambda record: record.sequence, reverse=True)
        claimed: List[Tuple[int, int]] = []
        accepted: List[_LogRecord] = []
        stale_records = 0
        torn_records = 0
        for record in records:
            if record.sequence < checkpoint_cutoff:
                # Predates the checkpoint: the checkpoint is authoritative for
                # everything it has seen (live handles restore below; anything
                # else was already released).
                continue
            if _overlaps(record.span, claimed):
                stale_records += 1
                continue
            if any(
                device.page_state(page) is not PageState.VALID
                for page in range(record.data_address, record.data_address + record.num_pages)
            ):
                torn_records += 1
                continue
            accepted.append(record)
            claimed.append(record.span)

        suffix_by_owner: Dict[int, List[_LogRecord]] = {}
        for record in accepted:
            suffix_by_owner.setdefault(record.owner, []).append(record)
        for owner_records in suffix_by_owner.values():
            owner_records.sort(key=lambda record: record.incarnation_id)

        checkpoint_tables = (
            {table.table_id: table for table in checkpoint.tables} if checkpoint else {}
        )

        entries_rebuilt = 0
        replayed = 0
        from_checkpoint = 0
        delete_entries = 0
        tables_restored = 0
        for table in self.tables:
            table_state = checkpoint_tables.get(table.table_id)
            candidates: List[Tuple[int, Optional[tuple], Optional[_LogRecord]]] = []
            if table_state is not None:
                for restored in table_state.incarnations:
                    handle = restored[0]
                    if not self._checkpoint_handle_intact(table.table_id, handle, claimed):
                        stale_records += 1
                        continue
                    candidates.append((handle.incarnation_id, restored, None))
            for record in suffix_by_owner.get(table.table_id, ()):
                candidates.append((record.incarnation_id, None, record))
            candidates.sort(key=lambda entry: entry[0])
            kept = candidates[-table.max_incarnations :]
            for _incarnation_id, from_ckpt, record in kept:
                if from_ckpt is not None:
                    table.restore_incarnation(*from_ckpt)
                    from_checkpoint += 1
                else:
                    assert record is not None
                    count = self._replay_record(table, record)
                    entries_rebuilt += count
                    replayed += 1
            if table_state is not None:
                table.restore_delete_list(table_state.delete_list)
                delete_entries += len(table_state.delete_list)
                table.advance_incarnation_counter(table_state.next_incarnation_id)
            if table.incarnation_count:
                tables_restored += 1

        self._restore_store_state(checkpoint, accepted)

        clean = (
            checkpoint is not None
            and checkpoint.clean
            and not accepted
            and not torn_pages
        )
        report = CrashRecoveryReport(
            path=self.path,
            clean_shutdown=clean,
            may_have_lost_buffered_writes=not clean,
            checkpoint_seq=checkpoint.sequence if checkpoint else None,
            incarnations_from_checkpoint=from_checkpoint,
            log_records_replayed=replayed,
            entries_rebuilt=entries_rebuilt,
            pages_scanned=pages_scanned,
            torn_pages_discarded=len(torn_pages) + torn_records,
            stale_records_discarded=stale_records,
            interrupted_erase_blocks=interrupted_blocks,
            tables_restored=tables_restored,
            delete_list_entries=delete_entries,
            recovery_io_ms=self.clock.now_ms - io_start_ms,
            wall_time_s=time.perf_counter() - wall_start,
        )
        self.events.record(
            "crash_recovery_completed",
            clean_shutdown=report.clean_shutdown,
            pages_scanned=report.pages_scanned,
            entries_rebuilt=report.entries_rebuilt,
            incarnations_from_checkpoint=report.incarnations_from_checkpoint,
            log_records_replayed=report.log_records_replayed,
            torn_pages_discarded=report.torn_pages_discarded,
            recovery_io_ms=report.recovery_io_ms,
        )
        return report

    def _repair_interrupted_erases(self) -> int:
        """Re-erase every block left erased-dirty by a mid-erase power cut."""
        device = self.persistent_device
        blocks = device.erased_dirty_blocks()
        for block in blocks:
            device.erase_block(block)
        return len(blocks)

    def _load_checkpoint(self) -> Optional[CheckpointState]:
        decoded = self.checkpoints.read_latest()
        if decoded is None:
            return None
        sequence, clean, payload, _latency = decoded
        try:
            state = deserialize_checkpoint(sequence, clean, payload)
        except (ValueError, KeyError, IndexError):
            return None
        self.checkpoints.note_sequence(state.sequence)
        return state

    def _scan_log(self) -> Tuple[List[_LogRecord], int, List[int]]:
        """Find record headers in the log partition without charging reads.

        Classification uses the per-page frame state (spare-area metadata);
        the pages recovery actually rebuilds from are read — and costed —
        in :meth:`_replay_record`.
        """
        device = self.persistent_device
        partition = device.layout.partition("log")
        start = partition.start_page(device.geometry)
        end = start + partition.num_pages(device.geometry)
        records: List[_LogRecord] = []
        torn_pages: List[int] = []
        pages_scanned = 0
        for page in range(start, end):
            pages_scanned += 1
            state = device.page_state(page)
            if state is PageState.TORN:
                torn_pages.append(page)
                continue
            if state is not PageState.VALID:
                continue
            record = _read_record(device, page)
            if record is not None and record.num_pages > 0 and record.span[1] <= end:
                records.append(record)
        return records, pages_scanned, torn_pages

    def _checkpoint_handle_intact(
        self,
        table_id: int,
        handle: IncarnationHandle,
        claimed: List[Tuple[int, int]],
    ) -> bool:
        """Is a checkpointed incarnation still fully present on media?

        False when the space was reclaimed after the checkpoint — its header
        no longer matches, a page is torn/erased, or a newer accepted record
        overwrote part of its span.
        """
        device = self.persistent_device
        header_page = handle.address - 1
        span = (header_page, handle.address + handle.num_pages)
        if header_page < 0 or _overlaps(span, claimed):
            return False
        record = _read_record(device, header_page)
        if record is None or record.owner != table_id or record.num_pages != handle.num_pages:
            return False
        if record.incarnation_id != handle.incarnation_id:
            return False
        return all(
            device.page_state(page) is PageState.VALID
            for page in range(handle.address, handle.address + handle.num_pages)
        )

    def _replay_record(self, table: SuperTable, record: _LogRecord) -> int:
        """Re-index one log record: read its pages, write its Bloom column."""
        pages, _latency = self.persistent_device.read_range(
            record.data_address, record.num_pages
        )
        items: Dict[bytes, bytes] = {}
        for image in pages:
            for key, value in iter_page_entries(image):
                items[key] = value
        handle = IncarnationHandle(
            incarnation_id=record.incarnation_id,
            address=record.data_address,
            num_pages=record.num_pages,
            item_count=len(items),
        )
        buffer = table.buffer
        key_words = [as_digest(key).clam_words() for key in items]
        table.restore_incarnation(
            handle, buffer.bloom_bits, buffer.bloom_hashes, len(items), key_words
        )
        return len(items)

    def _restore_store_state(
        self, checkpoint: Optional[CheckpointState], accepted: List[_LogRecord]
    ) -> None:
        """Rebuild the log store's allocator state from the restored tables."""
        live: Dict[int, int] = {}
        owner_ids: Dict[int, int] = {}
        for table in self.tables:
            for handle in table.incarnation_handles:
                live[handle.address - 1] = handle.num_pages + 1
            owner_ids[table.table_id] = table.next_incarnation_id
        next_seq = checkpoint.next_seq if checkpoint is not None else 1
        head = checkpoint.head if checkpoint is not None else None
        wraps = checkpoint.wraps if checkpoint is not None else 0
        if accepted:
            newest = max(accepted, key=lambda record: record.sequence)
            next_seq = max(next_seq, newest.sequence + 1)
            head = newest.span[1]
        if head is None:
            partition = self.persistent_device.layout.partition("log")
            head = partition.start_page(self.persistent_device.geometry)
        self.log_store.restore_state(
            next_seq=next_seq, head=head, wraps=wraps, owner_next_ids=owner_ids, live=live
        )

    # -- Checkpointing ---------------------------------------------------------

    def checkpoint(self, clean: bool = False) -> int:
        """Write a checkpoint now; returns its sequence number."""
        payload = serialize_checkpoint(self.log_store, self.tables)
        sequence, _latency = self.checkpoints.write(payload, clean=clean)
        self._flushes_since_checkpoint = 0
        self.events.record("checkpoint_written", sequence=sequence, payload_bytes=len(payload))
        return sequence

    def insert(self, key, value) -> InsertResult:
        result = super().insert(key, value)
        if self._checkpoint_every is not None and result.flushed:
            self._flushes_since_checkpoint += 1
            if self._flushes_since_checkpoint >= self._checkpoint_every:
                self.checkpoint()
        return result

    # -- Lifecycle -------------------------------------------------------------

    def flush_buffers(self) -> int:
        """Flush every non-empty buffer to flash; returns flushes performed.

        After this returns, every previously buffered insert is acknowledged
        (it lives in an on-flash incarnation and will survive a power cut).
        """
        flushed = 0
        for table in self.tables:
            if len(table.buffer):
                table.flush()
                flushed += 1
        return flushed

    def close(self) -> None:
        """Flush, write a final clean checkpoint and release the device.

        Idempotent.  When the device is dead (crash-stopped or power-cut) the
        flush and checkpoint are skipped — there is no device to write to —
        and only the file mapping is released.
        """
        if self._closed:
            return
        self._closed = True
        device = self.persistent_device
        try:
            if not device.closed and not device.faults.is_crashed:
                self.flush_buffers()
                self.checkpoint(clean=True)
                device.flush()
        finally:
            device.close()

    def __enter__(self) -> "DurableCLAM":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
