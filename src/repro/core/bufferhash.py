"""Partitioned BufferHash: many super tables behind one hash-table interface (§5.2).

The key space is partitioned by hashing each key to one of ``2^k1`` super
tables; the remaining hash bits address the key within that super table.
Partitioning keeps every buffer small (ideally one flash block), so flushes
are short, blocking lookups rarely wait behind them and evictions stay cheap.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import CLAMConfig
from repro.core.errors import ConfigurationError
from repro.core.eviction import EvictionPolicy, make_policy
from repro.core.hashing import PARTITION_WORD, KeyDigest, KeyLike, as_digest, hold_digest_cache
from repro.core.results import DeleteResult, InsertResult, LookupResult
from repro.core.storage import (
    IncarnationStore,
    MultiDeviceLogStore,
    PartitionedChipStore,
    WholeDeviceLogStore,
)
from repro.core.supertable import SuperTable
from repro.flashsim.clock import SimulationClock
from repro.flashsim.device import StorageDevice
from repro.flashsim.flash_chip import FlashChip


class BufferHash:
    """A hash table over (key, value) byte strings, spread across super tables.

    Parameters
    ----------
    config:
        Structural parameters (:class:`~repro.core.config.CLAMConfig`).
    device:
        The flash/SSD/disk device holding incarnations, or a *list* of SSDs
        to distribute super tables across (§5.2's multi-SSD deployment).
    clock:
        Simulation clock shared with the device(s).
    eviction_policy:
        Optional policy instance; when omitted it is built from
        ``config.eviction_policy_name``.
    store:
        Optional pre-built :class:`~repro.core.storage.IncarnationStore`,
        overriding the automatically selected layout.
    """

    def __init__(
        self,
        config: CLAMConfig,
        device,
        clock: Optional[SimulationClock] = None,
        eviction_policy: Optional[EvictionPolicy] = None,
        store: Optional[IncarnationStore] = None,
    ) -> None:
        self.config = config
        if isinstance(device, (list, tuple)):
            if not device:
                raise ConfigurationError("device list must not be empty")
            self.devices: List[StorageDevice] = list(device)
            self.device = self.devices[0]
        else:
            self.devices = [device]
            self.device = device
        self.clock = clock if clock is not None else self.device.clock
        for member in self.devices:
            if self.clock is not member.clock:
                raise ConfigurationError("BufferHash and its devices must share a clock")

        page_size = config.page_size_bytes or self.device.geometry.page_size
        if page_size > self.device.geometry.block_size:
            raise ConfigurationError("page_size cannot exceed the device block size")
        self.page_size = page_size
        self.pages_per_incarnation = config.pages_per_incarnation(page_size)

        self.store = store if store is not None else self._build_store()
        self.incarnations_per_table = self._resolve_incarnations_per_table()

        if eviction_policy is None:
            eviction_policy = make_policy(config.eviction_policy_name)
        self.eviction_policy = eviction_policy

        self.tables: List[SuperTable] = [
            SuperTable(
                table_id=index,
                store=self.store,
                clock=self.clock,
                buffer_capacity_items=config.buffer_capacity_items,
                buffer_slots=config.buffer_slots,
                max_incarnations=self.incarnations_per_table,
                page_size=page_size,
                pages_per_incarnation=self.pages_per_incarnation,
                bloom_bits=config.bloom_bits_per_incarnation(),
                memory_cost=config.memory_cost,
                eviction_policy=eviction_policy,
                use_bloom_filters=config.use_bloom_filters,
                use_bit_slicing=config.use_bit_slicing,
            )
            for index in range(config.num_super_tables)
        ]
        # Digests of keys beyond the buffers and the FIFO window save this index nothing.
        hold_digest_cache(self, config.total_items_capacity(self.incarnations_per_table))

    # -- Construction helpers ---------------------------------------------------------

    def _build_store(self) -> IncarnationStore:
        if len(self.devices) > 1:
            return MultiDeviceLogStore(self.devices)
        device = self.device
        if isinstance(device, FlashChip):
            return PartitionedChipStore(
                chip=device,
                num_partitions=self.config.num_super_tables,
                pages_per_incarnation=self._chip_aligned_pages(device),
            )
        return WholeDeviceLogStore(device)

    def _chip_aligned_pages(self, chip: FlashChip) -> int:
        """On raw chips incarnation slots are rounded up to whole blocks."""
        pages_per_block = chip.geometry.pages_per_block
        pages = self.pages_per_incarnation
        if pages % pages_per_block:
            pages = ((pages // pages_per_block) + 1) * pages_per_block
        self.pages_per_incarnation = pages
        return pages

    def _resolve_incarnations_per_table(self) -> int:
        """Use the configured k, or derive the largest k the device(s) can hold."""
        capacity_pages = sum(member.geometry.total_pages for member in self.devices)
        max_total_incarnations = capacity_pages // self.pages_per_incarnation
        max_per_table = max_total_incarnations // self.config.num_super_tables
        if max_per_table < 1:
            raise ConfigurationError(
                "device too small: cannot hold one incarnation per super table "
                f"(pages={capacity_pages}, pages_per_incarnation={self.pages_per_incarnation}, "
                f"super_tables={self.config.num_super_tables})"
            )
        configured = self.config.incarnations_per_table
        if configured is None:
            return max_per_table
        if configured > max_per_table:
            raise ConfigurationError(
                f"incarnations_per_table={configured} exceeds device capacity "
                f"(max {max_per_table} per super table)"
            )
        return configured

    # -- Partitioning -------------------------------------------------------------------

    # The paper's first k1 hash bits pick the super table.  A digest passes
    # through and, once warm, partitions from its words; anything else becomes
    # a (cached) digest here, and every layer below reuses it.
    # :class:`~repro.core.clam.CLAM` lookups and inserts use this line inline.

    def table_for(self, key: KeyLike) -> SuperTable:
        """The super table owning ``key``."""
        key = key if type(key) is KeyDigest else as_digest(key)
        tables = self.tables
        return tables[(key.words or key.clam_words())[PARTITION_WORD] % len(tables)]

    # -- Hash-table operations ------------------------------------------------------------

    def insert(self, key: KeyLike, value: bytes) -> InsertResult:
        """Insert or update a key."""
        key = key if type(key) is KeyDigest else as_digest(key)
        return self.table_for(key).insert(key, bytes(value))

    def update(self, key: KeyLike, value: bytes) -> InsertResult:
        """Lazy update (alias of insert)."""
        return self.insert(key, value)

    def lookup(self, key: KeyLike) -> LookupResult:
        """Return the most recent value for a key."""
        key = key if type(key) is KeyDigest else as_digest(key)
        return self.table_for(key).lookup(key)

    def delete(self, key: KeyLike) -> DeleteResult:
        """Delete a key lazily."""
        key = key if type(key) is KeyDigest else as_digest(key)
        return self.table_for(key).delete(key)

    def get(self, key: KeyLike) -> Optional[bytes]:
        """Convenience accessor returning just the value (or ``None``)."""
        return self.lookup(key).value

    def __contains__(self, key: KeyLike) -> bool:
        return self.lookup(key).found

    # -- Aggregate state --------------------------------------------------------------------

    @property
    def total_incarnations(self) -> int:
        """Live incarnations across every super table."""
        return sum(table.incarnation_count for table in self.tables)

    @property
    def total_flushes(self) -> int:
        """Buffer flushes performed so far."""
        return sum(table.flush_count for table in self.tables)

    @property
    def total_evictions(self) -> int:
        """Incarnation evictions performed so far."""
        return sum(table.eviction_count for table in self.tables)

    def cascade_histogram(self) -> Dict[int, int]:
        """Histogram of incarnations tried per flush (Figure 8b)."""
        merged: Dict[int, int] = {}
        for table in self.tables:
            for tried, count in table.cascade_histogram.items():
                merged[tried] = merged.get(tried, 0) + count
        return merged

    def snapshot_items(self) -> Dict[bytes, bytes]:
        """All live items across every super table (see :meth:`SuperTable.snapshot_items`)."""
        merged: Dict[bytes, bytes] = {}
        for table in self.tables:
            merged.update(table.snapshot_items())
        return merged
