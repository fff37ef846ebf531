"""A single super table: buffer + on-flash incarnations + Bloom filters (§5.1).

The super table is where all of BufferHash's mechanisms meet:

* inserts go to the in-memory :class:`~repro.core.buffer.Buffer`, one
  bucketised cuckoo hash table that does no Bloom work; when it refuses a
  put (full, or a displacement path that cycled), its contents are written
  sequentially to flash as a new incarnation, and that incarnation's Bloom filter is
  written once, from the CLAM words the buffer kept, into its column of the
  bit-sliced array (:class:`~repro.core.sliced_bloom.BitSlicedBloomArray`,
  the only copy of every incarnation's filter; a checkpoint carries a column
  as bytes, and recovery restores it from them or from its page keys' words);
* lookups check the buffer, then ask that array for the candidate
  incarnations and read at most one flash page per candidate, newest first.
  ``use_bit_slicing=False`` (one filter per incarnation) asks the same array
  for the same candidates and changes only the DRAM cost charged;
* updates are lazy (a new value simply shadows older ones) and deletes go to
  an in-memory delete list;
* evictions operate on whole incarnations through an
  :class:`~repro.core.eviction.EvictionPolicy`, with full or partial discard
  and cascaded evictions when nothing can be dropped.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.buffer import Buffer
from repro.core.config import BLOOM_PROBE_PER_INCARNATION_MS, BLOOM_SLICED_QUERY_MS
from repro.core.config import BLOOM_UPDATE_MS, BUFFER_OP_MS, DELETE_LIST_PROBE_MS, PAGE_SCAN_MS
from repro.core.errors import ConfigurationError
from repro.core.eviction import EvictionContext, EvictionPolicy, FIFOEviction
from repro.core.hashing import PAGE_WORD, KeyDigest, KeyLike, as_digest
from repro.core.incarnation import (
    IncarnationHandle,
    build_pages,
    iter_page_entries,
    required_pages,
    search_page,
)
from repro.core.results import (
    DeleteResult,
    FlushResult,
    InsertResult,
    LookupResult,
    ServedFrom,
)
from repro.core.sliced_bloom import BitSlicedBloomArray
from repro.core.storage import IncarnationStore
from repro.flashsim.clock import SimulationClock

# Bound once: enum member access goes through the metaclass on every read,
# and every lookup names one of these.
_BUFFER = ServedFrom.BUFFER
_INCARNATION = ServedFrom.INCARNATION
_DELETED = ServedFrom.DELETED
_MISSING = ServedFrom.MISSING


class SuperTable:
    """One partition of a BufferHash (Figure 1 of the paper)."""

    def __init__(
        self,
        table_id: int,
        store: IncarnationStore,
        clock: SimulationClock,
        buffer_capacity_items: int,
        buffer_slots: int,
        max_incarnations: int,
        page_size: int,
        pages_per_incarnation: int,
        bloom_bits: int,
        eviction_policy: Optional[EvictionPolicy] = None,
        use_bloom_filters: bool = True,
        use_bit_slicing: bool = True,
    ) -> None:
        if max_incarnations <= 0:
            raise ConfigurationError("max_incarnations must be positive")
        if pages_per_incarnation <= 0:
            raise ConfigurationError("pages_per_incarnation must be positive")
        self.table_id = table_id
        self.store = store
        # Where lookups read this table's pages, decided once by the layout.
        self._page_device, self._page_base = store.page_device(table_id)
        self.clock = clock
        self.max_incarnations = max_incarnations
        self.page_size = page_size
        self.pages_per_incarnation = pages_per_incarnation
        self.eviction_policy = eviction_policy if eviction_policy is not None else FIFOEviction()
        self.use_bloom_filters = use_bloom_filters
        self.use_bit_slicing = use_bit_slicing
        # The standard organisation, decided once: lookup charges the sliced
        # query itself; the two ablations go through _candidate_incarnations.
        self._query_sliced = use_bloom_filters and use_bit_slicing

        self.buffer = Buffer(
            capacity_items=buffer_capacity_items,
            num_slots=buffer_slots,
            bloom_bits=bloom_bits,
        )
        # Incarnations ordered oldest -> newest.
        self._incarnations: List[IncarnationHandle] = []
        # Their Bloom filters, bit-sliced; each column is owned by its handle,
        # so a query yields candidate handles directly.
        self._sliced = BitSlicedBloomArray(
            num_bits=self.buffer.bloom_bits,
            num_hashes=self.buffer.bloom_hashes,
            max_incarnations=max_incarnations,
        )
        self._next_incarnation_id = 0
        self._delete_list: set[bytes] = set()
        # Counters used by experiments and tests.
        self.flush_count = 0
        self.eviction_count = 0
        self.cascade_histogram: Dict[int, int] = {}
        self.reinsert_latency_total_ms = 0.0

    # -- Small helpers -------------------------------------------------------------

    @property
    def incarnation_count(self) -> int:
        """Number of on-flash incarnations currently live."""
        return len(self._incarnations)

    # -- Candidate selection ---------------------------------------------------------

    def _candidate_incarnations(self, key: KeyDigest) -> Tuple[List[IncarnationHandle], float]:
        """Incarnations that may hold ``key`` (newest first) and the DRAM cost,
        for the two ablations: no Bloom filters, or one filter per incarnation.

        One filter per incarnation answers exactly as the sliced array does,
        so the array names the candidates; only the charged cost differs.
        """
        if not self._incarnations:
            return [], 0.0
        if not self.use_bloom_filters:
            # Ablation: every incarnation is a candidate, newest first.
            return list(reversed(self._incarnations)), 0.0
        cost = BLOOM_PROBE_PER_INCARNATION_MS * len(self._incarnations)
        return self._sliced.candidates(key), cost

    # -- Lookup -----------------------------------------------------------------------

    def lookup(self, key: KeyLike) -> LookupResult:
        """Find the most recent value for ``key`` (bytes or a KeyDigest).

        Every DRAM-side step charges the clock in place as it happens (delete
        list, buffer probe, Bloom query, one page scan per page read; see
        :mod:`repro.flashsim.clock`), so simulated time interleaves with the
        device's own charges exactly as the steps do; ``latency`` accumulates
        the same amounts in the same order.
        Results are built positionally — ``(key, value, latency_ms,
        served_from, flash_reads, incarnations_checked,
        false_positive_reads)`` — which costs half of what seven keyword
        arguments do, once per lookup.
        """
        key = key if type(key) is KeyDigest else as_digest(key)
        data = key.data
        clock = self.clock
        latency = DELETE_LIST_PROBE_MS
        clock._now_ms += latency
        if data in self._delete_list:
            return LookupResult(data, None, latency, _DELETED)
        clock._now_ms += BUFFER_OP_MS
        latency += BUFFER_OP_MS
        value = self.buffer.get(key)
        if value is not None:
            return LookupResult(data, value, latency, _BUFFER)

        if self._query_sliced:
            candidates = self._sliced.candidates(key)
            bloom_cost = BLOOM_SLICED_QUERY_MS if self._incarnations else 0.0
        else:
            candidates, bloom_cost = self._candidate_incarnations(key)
        clock._now_ms += bloom_cost
        latency += bloom_cost
        flash_reads = 0
        false_positive_reads = 0
        read_page = self._page_device.read_page
        for handle in candidates:
            num_pages = handle.num_pages
            page = (key.words or key.clam_words())[PAGE_WORD] % num_pages
            address = handle.address - self._page_base
            image, flash_latency = read_page(address + page)
            reads = 1
            value, overflowed = search_page(image, data)
            if value is None and overflowed:
                # Entries spilled past the home page: follow the overflow
                # flags (wrapping) until the key turns up or a page says
                # nothing went further.
                for probe in range(1, num_pages):
                    image, read_latency = read_page(address + (page + probe) % num_pages)
                    flash_latency += read_latency
                    reads += 1
                    value, overflowed = search_page(image, data)
                    if value is not None or not overflowed:
                        break
            flash_reads += reads
            latency += flash_latency
            scan_cost = PAGE_SCAN_MS * reads
            clock._now_ms += scan_cost
            latency += scan_cost
            if value is not None:
                result = LookupResult(
                    data, value, latency, _INCARNATION,
                    flash_reads, len(candidates), false_positive_reads,
                )  # fmt: skip
                if self.eviction_policy.reinsert_on_use:
                    # LRU emulation: an item found on flash goes back into the
                    # buffer.  The paper does this asynchronously, off the
                    # lookup's critical path, so its latency is tracked apart.
                    self.reinsert_latency_total_ms += self.insert(key, value).latency_ms
                return result
            false_positive_reads += reads
        return LookupResult(
            data, None, latency, _MISSING,
            flash_reads, len(candidates), false_positive_reads,
        )  # fmt: skip

    # -- Insert / update / delete -------------------------------------------------------

    def insert(self, key: KeyLike, value: bytes) -> InsertResult:
        """Insert or (lazily) update ``key`` (bytes or a KeyDigest)."""
        key = key if type(key) is KeyDigest else as_digest(key)
        data = key.data
        latency = BUFFER_OP_MS + BLOOM_UPDATE_MS
        self.clock._now_ms += latency  # in place (see lookup)
        self._delete_list.discard(data)
        if self.buffer.put(key, value):
            return InsertResult(data, latency)
        flush_result = self.flush()
        if not self.buffer.put(key, value):
            # The retained items the flush put back left no room: flush again,
            # writing all it retains, and the emptied buffer takes the key.
            self._flush(flush_result, put_back=False)
            self.buffer.put(key, value)
        latency += flush_result.latency_ms
        return InsertResult(
            key=data,
            latency_ms=latency,
            flushed=True,
            flush_latency_ms=flush_result.latency_ms,
            incarnations_tried=flush_result.incarnations_tried,
            flash_writes=flush_result.flash_writes,
            flash_reads=flush_result.flash_reads,
        )

    def update(self, key: KeyLike, value: bytes) -> InsertResult:
        """Lazy update: identical to insert; newer values shadow older ones."""
        return self.insert(key, value)

    def delete(self, key: KeyLike) -> DeleteResult:
        """Delete ``key`` lazily via the in-memory delete list."""
        key = key if type(key) is KeyDigest else as_digest(key)
        data = key.data
        latency = BUFFER_OP_MS + DELETE_LIST_PROBE_MS
        self.clock.advance(latency)
        removed = self.buffer.delete(key)
        # Older copies may still exist on flash, so the delete list entry is
        # needed even when the buffer held the key.
        if self._incarnations:
            self._delete_list.add(data)
        elif not removed:
            self._delete_list.add(data)
        return DeleteResult(key=data, latency_ms=latency, removed_from_buffer=removed)

    # -- Flush and eviction ----------------------------------------------------------------

    def flush(self) -> FlushResult:
        """Write the buffer to flash as a new incarnation, evicting as needed.

        Handles cascaded evictions for partial-discard policies: when an
        evicted incarnation retains (almost) everything, the retained items
        themselves fill the buffer and force another flush/eviction round,
        until something can be discarded or every incarnation has been tried
        (at which point the oldest incarnation is fully discarded, as §7.4
        describes).  Fewer go back into the buffer, and any it refuses are
        written as the next incarnation: a retained item is never dropped.
        Each new incarnation's Bloom column is written here, once.
        """
        return self._flush(FlushResult(), put_back=True)

    def _flush(self, result: FlushResult, put_back: bool) -> FlushResult:
        """:meth:`flush`, adding to ``result``; ``put_back=False`` writes
        every retained item, leaving the buffer empty."""
        pending, key_words, item_count = self.buffer.drain()
        incarnations_tried = 0

        while pending is not None:
            retained: Dict[bytes, bytes] = {}
            if len(self._incarnations) >= self.max_incarnations:
                force_full = incarnations_tried >= self.max_incarnations
                retained, evict_latency, evict_reads = self._evict_oldest(force_full)
                incarnations_tried += 1
                result.latency_ms += evict_latency
                result.flash_reads += evict_reads
                result.forced_full_discard = result.forced_full_discard or force_full

            write_latency, pages_written = self._write_incarnation(pending, key_words, item_count)
            result.latency_ms += write_latency
            result.flash_writes += pages_written

            if put_back and len(retained) < self.buffer.capacity_items:
                refused: Dict[bytes, bytes] = {}
                reinsert_cost = 0.0
                for key, value in retained.items():
                    if not self.buffer.put(key, value):
                        refused[key] = value
                    reinsert_cost += BUFFER_OP_MS + BLOOM_UPDATE_MS
                if reinsert_cost:
                    self.clock.advance(reinsert_cost)
                    result.latency_ms += reinsert_cost
                retained = refused
            pending = retained or None
            if retained:  # a cascade: what is still retained is the next incarnation
                key_words = [as_digest(key).clam_words() for key in retained]
                item_count = len(retained)

        result.incarnations_tried += incarnations_tried
        self.flush_count += 1
        self.cascade_histogram[incarnations_tried] = (
            self.cascade_histogram.get(incarnations_tried, 0) + 1
        )
        return result

    def _write_incarnation(
        self, items: Dict[bytes, bytes], key_words: List[Sequence[int]], item_count: int
    ) -> Tuple[float, int]:
        """Serialise ``items`` and append them to flash as a new incarnation
        whose filter holds ``key_words`` (see :meth:`Buffer.drain`)."""
        # The nominal incarnation size assumes the configuration's estimated
        # entry size; when actual entries are larger (long keys or values),
        # grow this incarnation rather than failing the flush.
        num_pages = max(self.pages_per_incarnation, required_pages(items, self.page_size))
        pages = build_pages(items, key_words, num_pages, self.page_size)
        # Every layout is told which super table flushed: the partitioned and
        # multi-SSD ones place by it, the durable log stamps it on the record.
        address, latency = self.store.write_incarnation(self.table_id, pages)
        handle = IncarnationHandle(
            incarnation_id=self._next_incarnation_id,
            address=address,
            num_pages=len(pages),
            item_count=len(items),
        )
        self._next_incarnation_id += 1
        self._incarnations.append(handle)
        self._sliced.append_keys(key_words, item_count, handle)
        return latency, len(pages)

    def _evict_oldest(self, force_full_discard: bool) -> Tuple[Dict[bytes, bytes], float, int]:
        """Evict the oldest incarnation; returns (retained items, latency, flash reads)."""
        handle = self._incarnations.pop(0)
        self.eviction_count += 1
        latency = 0.0
        flash_reads = 0
        retained: Dict[bytes, bytes] = {}
        policy = self.eviction_policy
        if policy.requires_scan and not force_full_discard:
            pages, read_latency = self.store.read_incarnation(handle.address, handle.num_pages)
            latency += read_latency
            flash_reads += handle.num_pages
            items: Dict[bytes, bytes] = {}
            for image in pages:
                for key, value in iter_page_entries(image):
                    items[key] = value
            scan_cost = PAGE_SCAN_MS * len(pages)
            self.clock.advance(scan_cost)
            latency += scan_cost
            context = EvictionContext(
                incarnation_id=handle.incarnation_id,
                is_deleted=self._delete_list.__contains__,
                superseded=lambda key, evicted=handle: self._superseded(key, evicted),
            )
            retained = policy.select_retained(items, context)
            # Deleted keys evicted with their last on-flash copy can leave the
            # delete list, reclaiming its memory.
            for key in items:
                if key in self._delete_list and not self._superseded(key, handle):
                    self._delete_list.discard(key)
        self._sliced.evict_oldest()
        self.store.release(handle.address, handle.num_pages)
        return retained, latency, flash_reads

    def _superseded(self, key: bytes, evicted: IncarnationHandle) -> bool:
        """Does a newer copy of ``key`` exist (buffer or newer incarnation)?

        Uses only in-memory state (buffer + Bloom filters), as the paper
        specifies; Bloom false positives can very occasionally discard a live
        item, which footnote 2 of §5.1.2 explicitly accepts.  The evicted
        incarnation's column is still live while its items are judged, so a
        newer copy is a newest candidate newer than it.
        """
        digest = as_digest(key)
        if self.buffer.get(digest) is not None:
            return True
        candidates = self._sliced.candidates(digest)
        return bool(candidates) and candidates[0].incarnation_id > evicted.incarnation_id

    # -- Crash recovery (used by repro.core.durable / repro.core.recovery) ------------------

    @property
    def incarnation_handles(self) -> Tuple[IncarnationHandle, ...]:
        """Live incarnation handles, oldest first (checkpoint serialisation)."""
        return tuple(self._incarnations)

    @property
    def next_incarnation_id(self) -> int:
        """Identifier the next flushed incarnation will receive."""
        return self._next_incarnation_id

    def column_bytes(self, handle: IncarnationHandle) -> Tuple[bytes, int]:
        """One live incarnation's Bloom filter as a plain bit array, and its
        ``item_count`` (checkpoint serialisation)."""
        return self._sliced.column_bytes(handle)

    def delete_list_snapshot(self) -> Tuple[bytes, ...]:
        """Current lazy-delete entries, sorted (checkpoint serialisation: the
        bytes then follow the CLAM's state, not the hash seed)."""
        return tuple(sorted(self._delete_list))

    def advance_incarnation_counter(self, next_id: int) -> None:
        """Ensure future incarnation ids start at ``next_id`` or later.

        Recovery calls this with the checkpointed counter so ids stay
        monotonic even when the newest incarnations were evicted (and thus
        are not re-registered) before the crash.
        """
        self._next_incarnation_id = max(self._next_incarnation_id, next_id)

    def restore_incarnation(
        self,
        handle: IncarnationHandle,
        num_bits: int,
        num_hashes: int,
        item_count: int,
        column: Union[bytes, List[Sequence[int]]],
    ) -> None:
        """Re-register an on-flash incarnation after a crash or reopen.

        Must be called oldest-first per table (ascending ``incarnation_id``),
        matching the order :meth:`flush` created them.  ``column`` is the
        incarnation's Bloom filter of ``num_bits`` by ``num_hashes`` counting
        ``item_count`` keys: a checkpoint's plain bit array, or the CLAM words
        of the keys on the incarnation's pages (log replay), which the flush's
        writer puts in its column.
        """
        if num_bits != self.buffer.bloom_bits or num_hashes != self.buffer.bloom_hashes:
            raise ConfigurationError(
                "restored Bloom filter geometry does not match the configuration"
            )
        if self._incarnations and handle.incarnation_id <= self._incarnations[-1].incarnation_id:
            raise ConfigurationError(
                "incarnations must be restored oldest-first "
                f"(got id {handle.incarnation_id} after {self._incarnations[-1].incarnation_id})"
            )
        if len(self._incarnations) >= self.max_incarnations:
            raise ConfigurationError(
                f"cannot restore more than max_incarnations={self.max_incarnations}"
            )
        if isinstance(column, bytes):
            self._sliced.append_column(column, item_count, handle)
        else:
            self._sliced.append_keys(column, item_count, handle)
        self._incarnations.append(handle)
        self._next_incarnation_id = max(self._next_incarnation_id, handle.incarnation_id + 1)

    def restore_delete_list(self, keys: Iterable[bytes]) -> None:
        """Reload the lazy delete list from a checkpoint."""
        self._delete_list.update(bytes(key) for key in keys)

    # -- Bulk iteration (a migration's key scan, ``LocalShard.live_keys``) ------------------

    def snapshot_items(self) -> Dict[bytes, bytes]:
        """All live (key, value) pairs, newest value per key, deletes applied.

        Reads every incarnation once, sequentially, through the store (so the
        device charges the reads); never on the per-operation path.
        """
        merged: Dict[bytes, bytes] = {}
        for handle in self._incarnations:  # oldest first so newer overwrite older
            pages, _latency = self.store.read_incarnation(handle.address, handle.num_pages)
            for image in pages:
                for key, value in iter_page_entries(image):
                    merged[key] = value
        merged.update(self.buffer.items())
        for key in self._delete_list:
            merged.pop(key, None)
        return merged
