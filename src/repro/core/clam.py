"""The CLAM: a cheap-and-large CAM built from DRAM plus flash.

A :class:`CLAM` is the paper's BufferHash data structure (§5) behind a
hash-table API.  Each key hashes to one of ``config.num_super_tables`` super
tables (:class:`~repro.core.supertable.SuperTable`: a DRAM buffer, its flash
incarnations and their Bloom filters); the remaining hash bits address the
key within that super table.  Partitioning keeps every buffer small (ideally
one flash block), so flushes are short, lookups rarely wait behind them and
evictions stay cheap (§5.2).  Incarnations live on one storage device
(Intel-like SSD, Transcend-like SSD, magnetic disk or raw flash chip) or on
several SSDs, placed by an :class:`~repro.core.storage.IncarnationStore`.
The CLAM keeps per-operation statistics and is the object applications (the
WAN optimizer, the deduplication index, the content-name directory) interact
with.

For the §7.3.1 ablations, a CLAM can also be built with ``use_buffering=False``
in its configuration: it then has no super tables, and each insert issues one
random page write, exactly the "conventional hash table on flash" behaviour
the paper compares against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.buffer import optimal_num_hashes
from repro.core.config import BUFFER_OP_MS, CLAMConfig
from repro.core.errors import ConfigurationError, DeviceFailedError
from repro.core.eviction import EvictionPolicy, make_policy
from repro.core.hashing import (
    PARTITION_WORD,
    UNBUFFERED_PAGE_SEED,
    KeyDigest,
    KeyLike,
    as_digest,
    hold_digest_cache,
)
from repro.core.results import (
    DeleteResult,
    InsertResult,
    LookupResult,
    OperationStats,
    ServedFrom,
)
from repro.core.storage import (
    IncarnationStore,
    MultiDeviceLogStore,
    PartitionedChipStore,
    WholeDeviceLogStore,
)
from repro.core.supertable import SuperTable
from repro.flashsim.clock import SimulationClock
from repro.flashsim.device import StorageDevice
from repro.telemetry import trace as _trace
from repro.telemetry.registry import MetricsRegistry
from repro.flashsim.disk import MAGNETIC_DISK_PROFILE, MagneticDisk
from repro.flashsim.dram import DRAMDevice
from repro.flashsim.faults import FaultMode
from repro.flashsim.flash_chip import FlashChip, GENERIC_FLASH_CHIP_PROFILE
from repro.flashsim.ssd import INTEL_SSD_PROFILE, SSD, TRANSCEND_SSD_PROFILE
from repro.flashsim.stats import IOKind

# Bound once: enum member access goes through the metaclass on every read.
_HEALTHY = FaultMode.HEALTHY

#: Storage names accepted by :func:`build_device` and :class:`CLAM`.
STORAGE_PROFILES = ("intel-ssd", "transcend-ssd", "disk", "flash-chip", "dram")


def build_device(storage: str, clock: Optional[SimulationClock] = None) -> StorageDevice:
    """Create a simulated storage device by profile name."""
    clock = clock if clock is not None else SimulationClock()
    name = storage.lower()
    if name in ("intel-ssd", "intel"):
        return SSD(profile=INTEL_SSD_PROFILE, clock=clock)
    if name in ("transcend-ssd", "transcend"):
        return SSD(profile=TRANSCEND_SSD_PROFILE, clock=clock)
    if name in ("disk", "magnetic-disk", "hdd"):
        return MagneticDisk(profile=MAGNETIC_DISK_PROFILE, clock=clock)
    if name in ("flash-chip", "chip", "nand"):
        return FlashChip(profile=GENERIC_FLASH_CHIP_PROFILE, clock=clock)
    if name == "dram":
        return DRAMDevice(clock=clock)
    raise ConfigurationError(
        f"unknown storage profile {storage!r}; expected one of {STORAGE_PROFILES}"
    )


class CLAM:
    """Cheap and Large CAM: hash-table API over DRAM buffers and flash storage.

    Parameters
    ----------
    config:
        Structural parameters; defaults to :meth:`CLAMConfig.scaled`.
    storage:
        A profile name (``"intel-ssd"``, ``"transcend-ssd"``, ``"disk"``,
        ``"flash-chip"``, ``"dram"``), an already constructed
        :class:`~repro.flashsim.device.StorageDevice`, or a list of either to
        spread the super tables across (§5.2's multi-SSD deployment).
    clock:
        Simulation clock shared by every device; when omitted, the first
        device object's clock is used (or a new one is created).  Named
        devices are built on it, and a device object on another clock is
        refused.
    eviction_policy:
        Optional explicit policy instance (e.g. a configured
        :class:`~repro.core.eviction.PriorityBasedEviction`); when omitted it
        is built from ``config.eviction_policy_name``.
    store:
        Optional pre-built :class:`~repro.core.storage.IncarnationStore`,
        overriding the layout chosen from the devices.
    """

    def __init__(
        self,
        config: Optional[CLAMConfig] = None,
        storage: Union[str, StorageDevice, list, tuple] = "intel-ssd",
        clock: Optional[SimulationClock] = None,
        eviction_policy: Optional[EvictionPolicy] = None,
        store: Optional[IncarnationStore] = None,
    ) -> None:
        self.config = config = config if config is not None else CLAMConfig.scaled()
        members = list(storage) if isinstance(storage, (list, tuple)) else [storage]
        if not members:
            raise ConfigurationError("storage list must not be empty")
        if clock is None:
            owned = [member.clock for member in members if isinstance(member, StorageDevice)]
            clock = owned[0] if owned else SimulationClock()
        self.clock = clock
        self.devices: List[StorageDevice] = [
            member if isinstance(member, StorageDevice) else build_device(member, clock=clock)
            for member in members
        ]
        if any(device.clock is not clock for device in self.devices):
            raise ConfigurationError("a CLAM and all its devices must share one clock")
        self.device = self.devices[0]
        self.stats = OperationStats()

        # Telemetry: the histogram/counter objects are resolved once here so
        # the per-operation cost is a single cached ``is None`` check when
        # disabled and one ``observe``/``inc`` call when enabled.
        if config.telemetry_enabled:
            self.telemetry: Optional[MetricsRegistry] = MetricsRegistry()
            self._tel_lookup = self.telemetry.histogram("lookup_latency_ms")
            self._tel_insert = self.telemetry.histogram("insert_latency_ms")
            self._tel_ops = self.telemetry.counter("operations")
        else:
            self.telemetry = None
            self._tel_lookup = None
            self._tel_insert = None
            self._tel_ops = None

        self._unbuffered_data: Dict[bytes, bytes] = {}
        # The unbuffered ablation's one Bloom filter, a plain bit array, and its
        # (hashes, bits).
        self._unbuffered_bloom: Optional[bytearray] = None
        self._unbuffered_shape = (0, 0)
        #: The super tables each operation picks from; none in the unbuffered
        #: ablation, whose handlers are below.
        self.tables: List[SuperTable] = []
        #: Incarnations each super table keeps (k): configured, or the most
        #: the devices hold; 0 in the unbuffered ablation.
        self.incarnations_per_table = 0
        if not config.use_buffering:
            if config.use_bloom_filters:
                total_items = config.total_items_capacity(config.incarnations_per_table or 16)
                num_bits = max(8, int(max(1024, total_items) * config.bloom_bits_per_entry))
                self._unbuffered_shape = (optimal_num_hashes(config.bloom_bits_per_entry), num_bits)
                self._unbuffered_bloom = bytearray((num_bits + 7) // 8)
            return

        geometry = self.device.geometry
        page_size = geometry.page_size
        pages = config.pages_per_incarnation(page_size)
        if store is None and len(self.devices) > 1:
            store = MultiDeviceLogStore(self.devices)
        elif store is None and isinstance(self.device, FlashChip):
            # On raw chips incarnation slots are rounded up to whole blocks.
            pages = -(-pages // geometry.pages_per_block) * geometry.pages_per_block
            store = PartitionedChipStore(self.device, config.num_super_tables, pages)
        elif store is None:
            store = WholeDeviceLogStore(self.device)

        capacity_pages = sum(device.geometry.total_pages for device in self.devices)
        max_per_table = capacity_pages // pages // config.num_super_tables
        if max_per_table < 1:
            raise ConfigurationError(
                "device too small: cannot hold one incarnation per super table "
                f"(pages={capacity_pages}, pages_per_incarnation={pages}, "
                f"super_tables={config.num_super_tables})"
            )
        configured = config.incarnations_per_table
        if configured is not None and configured > max_per_table:
            raise ConfigurationError(
                f"incarnations_per_table={configured} exceeds device capacity "
                f"(max {max_per_table} per super table)"
            )
        self.incarnations_per_table = max_per_table if configured is None else configured

        if eviction_policy is None:
            eviction_policy = make_policy(config.eviction_policy_name)
        self.tables = [
            SuperTable(
                table_id=index,
                store=store,
                clock=clock,
                buffer_capacity_items=config.buffer_capacity_items,
                buffer_slots=config.buffer_slots,
                max_incarnations=self.incarnations_per_table,
                page_size=page_size,
                pages_per_incarnation=pages,
                bloom_bits=config.bloom_bits_per_incarnation(),
                eviction_policy=eviction_policy,
                use_bloom_filters=config.use_bloom_filters,
                use_bit_slicing=config.use_bit_slicing,
            )
            for index in range(config.num_super_tables)
        ]
        # Digests of keys beyond the buffers and the FIFO window save this index nothing.
        hold_digest_cache(self, config.total_items_capacity(self.incarnations_per_table))

    # -- Hash-table API -----------------------------------------------------------------

    def _check_available(self) -> None:
        """Refuse every operation while any backing device is crash-stopped.

        A crash-stop (see :mod:`repro.flashsim.faults`) models the whole node
        dying, so even operations that would have been served from the DRAM
        buffer are refused — without this gate a dead shard would keep
        answering from memory.  Intermittent-error and degraded fault modes
        are *not* gated here; they surface through the device I/O path only.
        Operations come here only once they have seen a device that is not healthy.
        """
        for device in self.devices:
            if device.faults.is_crashed:
                raise DeviceFailedError(
                    f"CLAM refusing operation: device {device.name!r} has crash-stopped"
                )

    # Every operation resolves its key to a (cached)
    # :class:`~repro.core.hashing.KeyDigest` here at the public API boundary,
    # with the line every boundary uses; each layer below — partitioning,
    # cuckoo buffer, Bloom filters, incarnation pages — reads that digest.
    # The paper's first k1 hash bits pick the super table: lookups and inserts
    # use table_for's line inline, a frame less on the hot path.

    def table_for(self, key: KeyLike) -> SuperTable:
        """The super table owning ``key``."""
        key = key if type(key) is KeyDigest else as_digest(key)
        tables = self.tables
        return tables[(key.words or key.clam_words())[PARTITION_WORD] % len(tables)]

    def insert(self, key: KeyLike, value: bytes) -> InsertResult:
        """Insert or update a (key, value) pair."""
        for device in self.devices:
            if device.faults.mode is not _HEALTHY:
                self._check_available()
        key = key if type(key) is KeyDigest else as_digest(key)
        tracer = _trace.ACTIVE
        span = None if tracer is None else tracer.begin("clam.insert", self.clock)
        tables = self.tables
        try:
            if not tables:
                result = self._unbuffered_insert(key, value)
            else:
                table = tables[(key.words or key.clam_words())[PARTITION_WORD] % len(tables)]
                result = table.insert(key, bytes(value))
        finally:
            if span is not None:
                tracer.end(span, self.clock)
        self.stats.record_insert(result)
        if self._tel_insert is not None:
            self._tel_insert.observe(result.latency_ms)
            self._tel_ops.inc()
        return result

    def update(self, key: KeyLike, value: bytes) -> InsertResult:
        """Lazy update (alias of insert)."""
        return self.insert(key, value)

    def lookup(self, key: KeyLike) -> LookupResult:
        """Look up the most recent value for a key."""
        for device in self.devices:
            if device.faults.mode is not _HEALTHY:
                self._check_available()
        key = key if type(key) is KeyDigest else as_digest(key)
        tracer = _trace.ACTIVE
        span = None if tracer is None else tracer.begin("clam.lookup", self.clock)
        tables = self.tables
        try:
            if not tables:
                result = self._unbuffered_lookup(key)
            else:
                table = tables[(key.words or key.clam_words())[PARTITION_WORD] % len(tables)]
                result = table.lookup(key)
        finally:
            if span is not None:
                tracer.end(span, self.clock)
        if span is not None:
            span.attributes["served_from"] = result.served_from.value
        self.stats.record_lookup(result)
        if self._tel_lookup is not None:
            self._tel_lookup.observe(result.latency_ms)
            self._tel_ops.inc()
        return result

    def delete(self, key: KeyLike) -> DeleteResult:
        """Delete a key."""
        for device in self.devices:
            if device.faults.mode is not _HEALTHY:
                self._check_available()
        key = key if type(key) is KeyDigest else as_digest(key)
        result = self.table_for(key).delete(key) if self.tables else self._unbuffered_delete(key)
        self.stats.deletes += 1
        if self._tel_ops is not None:
            self._tel_ops.inc()
        return result

    def get(self, key: KeyLike) -> Optional[bytes]:
        """Convenience accessor returning just the value (or ``None``)."""
        return self.lookup(key).value

    def __contains__(self, key: KeyLike) -> bool:
        return self.lookup(key).found

    # -- Batched API ----------------------------------------------------------------------
    #
    # Loop fallbacks satisfying
    # :class:`repro.wanopt.engine.FingerprintIndex`: a single CLAM has no
    # shards to fan out to, so a batch is simply the operations in order on
    # the one device (results are exactly what sequential calls produce).

    def lookup_batch(self, keys: Iterable[KeyLike]) -> List[LookupResult]:
        """Look up every key in order; results in submission order."""
        return [self.lookup(key) for key in keys]

    def insert_batch(self, items: Iterable[Tuple[KeyLike, bytes]]) -> List[InsertResult]:
        """Insert every ``(key, value)`` pair in order; results in order."""
        return [self.insert(key, value) for key, value in items]

    # -- Unbuffered (ablation) mode -------------------------------------------------------
    #
    # Keys arrive as digests from the public API boundary above.

    def _unbuffered_page_for(self, key: KeyDigest) -> int:
        return key.digest(UNBUFFERED_PAGE_SEED) % self.device.geometry.total_pages

    def _unbuffered_insert(self, key: KeyDigest, value: bytes) -> InsertResult:
        data = key.data
        page = self._unbuffered_page_for(key)
        self.clock.advance(BUFFER_OP_MS)
        write_latency = self.device.write_page(page, data[: self.device.geometry.page_size])
        latency = BUFFER_OP_MS + write_latency
        self._unbuffered_data[data] = bytes(value)
        bloom = self._unbuffered_bloom
        if bloom is not None:
            for position in key.bloom_positions(*self._unbuffered_shape):
                bloom[position >> 3] |= 1 << (position & 7)
        return InsertResult(key=data, latency_ms=latency, flash_writes=1)

    def _unbuffered_lookup(self, key: KeyDigest) -> LookupResult:
        data = key.data
        self.clock.advance(BUFFER_OP_MS)
        latency = BUFFER_OP_MS
        flash_reads = 0
        bloom = self._unbuffered_bloom
        if bloom is not None and not all(
            bloom[position >> 3] >> (position & 7) & 1
            for position in key.bloom_positions(*self._unbuffered_shape)
        ):
            return LookupResult(
                key=data, value=None, latency_ms=latency, served_from=ServedFrom.MISSING
            )
        page = self._unbuffered_page_for(key)
        _payload, read_latency = self.device.read_page(page)
        latency += read_latency
        flash_reads = 1
        value = self._unbuffered_data.get(data)
        served = ServedFrom.INCARNATION if value is not None else ServedFrom.MISSING
        return LookupResult(
            key=data,
            value=value,
            latency_ms=latency,
            served_from=served,
            flash_reads=flash_reads,
        )

    def _unbuffered_delete(self, key: KeyDigest) -> DeleteResult:
        data = key.data
        self.clock.advance(BUFFER_OP_MS)
        removed = self._unbuffered_data.pop(data, None) is not None
        return DeleteResult(key=data, latency_ms=BUFFER_OP_MS, removed_from_buffer=removed)

    # -- Aggregate state ------------------------------------------------------------------

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

    # -- Reporting -----------------------------------------------------------------------

    def throughput_ops_per_second(self) -> float:
        """Hash operations per simulated second so far."""
        elapsed_ms = self.clock.now_ms
        total_ops = self.stats.lookups + self.stats.inserts + self.stats.deletes
        if elapsed_ms <= 0:
            return 0.0
        return total_ops / (elapsed_ms / 1000.0)

    def counters(self) -> Dict[str, float]:
        """Cheap flat snapshot of this instance's counters and device I/O.

        Unlike :meth:`describe`, this copies only O(1) scalars (no latency
        sample lists, no derived summaries), so a service layer can poll a
        whole fleet of CLAMs per batch without measurable overhead.  Flash
        counters come straight from :class:`~repro.flashsim.stats.IOStats`.
        """
        summary = self.stats.counters()
        summary["clock_ms"] = self.clock.now_ms
        # Flushes are the super tables' count; the unbuffered ablation has none.
        summary.update(self._table_counters() or {"flushes": 0.0})
        for kind in IOKind:
            ops = sum(device.stats.count(kind) for device in self.devices)
            nbytes = sum(device.stats.bytes_moved(kind) for device in self.devices)
            busy = sum(device.stats.total_latency_ms(kind) for device in self.devices)
            summary[f"device_{kind.value}_ops"] = float(ops)
            summary[f"device_{kind.value}_bytes"] = float(nbytes)
            summary[f"device_{kind.value}_ms"] = busy
        return summary

    def describe(self) -> Dict[str, float]:
        """Summary dictionary used by benchmarks and examples."""
        summary: Dict[str, float] = {
            "lookups": float(self.stats.lookups),
            "inserts": float(self.stats.inserts),
            "mean_lookup_ms": self.stats.mean_lookup_latency_ms,
            "mean_insert_ms": self.stats.mean_insert_latency_ms,
            "max_lookup_ms": self.stats.lookup_latency_max_ms,
            "max_insert_ms": self.stats.insert_latency_max_ms,
            "lookup_success_rate": self.stats.lookup_success_rate,
            "throughput_ops_per_s": self.throughput_ops_per_second(),
        }
        summary.update(self._table_counters())
        return summary

    def _table_counters(self) -> Dict[str, float]:
        """Super-table aggregate counters (empty in unbuffered ablation mode)."""
        if not self.tables:
            return {}
        return {
            "flushes": float(self.total_flushes),
            "evictions": float(self.total_evictions),
            "incarnations": float(self.total_incarnations),
        }
