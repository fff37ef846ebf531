"""Compression engine (CE) of the WAN optimizer.

For each arriving object the engine:

1. looks each distinct chunk fingerprint up in the fingerprint index (CLAM
   or a baseline index);
2. replaces chunks whose fingerprints match with small references
   (``reference_size`` bytes each on the wire);
3. appends new chunks to the on-disk content cache and inserts their
   fingerprints (pointing at the cache address) into the index.

The engine reports, per object, the original and compressed sizes and how
much simulated time was spent in index lookups, index inserts and cache
writes — the quantities behind Figures 9 and 10.

Every engine makes **one lookup round trip for the whole object and one
insert round trip for its new chunks**
(:meth:`CompressionEngine.process_object_batched`).  The single-box optimizer
(:mod:`repro.wanopt.optimizer`) and each branch office of the multi-branch
deployment (:mod:`repro.wanopt.topology`), where the fingerprint index is a
remote, sharded :class:`~repro.service.cluster.ClusterService`, run the same
two round trips; only the clocks they are charged to differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.core.results import InsertResult, LookupResult
from repro.telemetry import trace as _trace
from repro.wanopt.cache import ContentCache
from repro.wanopt.traces import TraceObject

#: Simulated CPU cost (ms) of computing one chunk's SHA-1 and Rabin boundaries:
#: the paper emulates a "high-speed CM" by pre-computing these, so each chunk
#: costs a small constant.
FINGERPRINT_COST_MS = 0.002


@runtime_checkable
class FingerprintIndex(Protocol):
    """Anything usable as the CE's fingerprint hash table.

    The engine calls only the two batched operations, one per round trip.
    :class:`repro.core.clam.CLAM` and the BDB-style
    :class:`repro.baselines.disk_hash.ExternalHashIndex` implement a batch as
    a local loop; :class:`repro.service.cluster.ClusterService` fans it out
    across shard sub-batches through its
    :class:`~repro.service.batch.BatchExecutor`.  The protocol is
    ``runtime_checkable`` and every implementation is held to it by
    ``tests/test_fingerprint_index_conformance.py``.
    """

    def lookup_batch(self, keys: Sequence) -> List[LookupResult]: ...

    def insert_batch(self, items: Sequence) -> List[InsertResult]: ...


@dataclass
class ObjectCompressionResult:
    """Outcome of compressing one object."""

    object_id: int
    original_bytes: int
    compressed_bytes: int
    chunks_total: int
    chunks_matched: int
    lookup_time_ms: float = 0.0
    insert_time_ms: float = 0.0
    cache_write_time_ms: float = 0.0
    fingerprint_time_ms: float = 0.0
    #: Per-chunk outcome, in chunk order (True = replaced by a reference).
    #: The multi-branch topology uses this to attribute cross-branch hits and
    #: to verify the far side can reconstruct every referenced chunk.
    matched_flags: Tuple[bool, ...] = ()

    @property
    def processing_time_ms(self) -> float:
        """Total CE time spent on this object."""
        return (
            self.lookup_time_ms
            + self.insert_time_ms
            + self.cache_write_time_ms
            + self.fingerprint_time_ms
        )


@dataclass
class CompressionEngine:
    """Redundancy-elimination engine with a pluggable fingerprint index.

    Parameters
    ----------
    index:
        The fingerprint hash table (a :class:`repro.core.CLAM` or any
        baseline index).
    content_cache:
        On-disk chunk store; optional — when omitted, cache write time is
        approximated as zero (useful for index-only studies).
    reference_size:
        Bytes transmitted for a matched chunk (fingerprint + on-wire header).

    Each chunk's fingerprinting costs :data:`FINGERPRINT_COST_MS`.
    """

    index: FingerprintIndex
    content_cache: Optional[ContentCache] = None
    reference_size: int = 40
    #: One record per processed object, in processing order.
    results: List[ObjectCompressionResult] = field(default_factory=list, init=False)

    def process_object_batched(self, obj: TraceObject, clock=None) -> ObjectCompressionResult:
        """Compress one object with one lookup and one insert round trip.

        Every distinct chunk fingerprint of the object is looked up in a
        single :meth:`FingerprintIndex.lookup_batch` call, and the new
        chunks' fingerprints are installed with a single
        :meth:`FingerprintIndex.insert_batch` call.  A chunk is sent as a
        reference exactly when its fingerprint was seen before: found by the
        lookup, or sent as a literal earlier in this object, so a chunk
        repeated *within* the object matches from its second occurrence on.

        ``clock`` is the caller's (branch-side) clock.  When it differs from
        the clock a resource already advanced — a remote index on its own
        clock(s), a data-center content cache — the elapsed time of each
        round trip is charged to it, so the branch timeline reflects waiting
        for the remote side.  When a resource shares ``clock`` (the classic
        single-box setup) nothing is double-counted.
        """
        tracer = _trace.ACTIVE
        if tracer is None:
            return self._process_object_batched(obj, clock)
        span = tracer.begin(
            "wanopt.object",
            clock if clock is not None else getattr(self.index, "clock", None),
            object_id=obj.object_id,
            chunks=obj.num_chunks,
            original_bytes=obj.size_bytes,
        )
        try:
            result = self._process_object_batched(obj, clock)
        finally:
            tracer.end(span, clock if clock is not None else getattr(self.index, "clock", None))
        span.attributes["chunks_matched"] = result.chunks_matched
        span.attributes["compressed_bytes"] = result.compressed_bytes
        return result

    def _process_object_batched(self, obj: TraceObject, clock=None) -> ObjectCompressionResult:
        # ``Chunk.fingerprint`` and ``Chunk.size`` are properties: each is
        # read once per chunk, here, and the loops below run over the lists.
        chunks = obj.chunks
        fingerprints = [chunk.fingerprint for chunk in chunks]
        sizes = [chunk.size for chunk in chunks]
        result = ObjectCompressionResult(
            object_id=obj.object_id,
            original_bytes=sum(sizes),
            compressed_bytes=0,
            chunks_total=len(chunks),
            chunks_matched=0,
        )
        index_clock = getattr(self.index, "clock", None)
        tick = clock if clock is not None else index_clock
        advance = getattr(tick, "advance", None)

        fingerprint_ms = FINGERPRINT_COST_MS * len(chunks)
        result.fingerprint_time_ms = fingerprint_ms
        if advance is not None and fingerprint_ms:
            advance(fingerprint_ms)

        # Round trip 1: look up each distinct fingerprint once.
        unique = list(dict.fromkeys(fingerprints))
        lookups = self.index.lookup_batch(unique)
        result.lookup_time_ms = self._round_trip_ms(lookups)
        if advance is not None and tick is not index_clock and result.lookup_time_ms:
            advance(result.lookup_time_ms)
        # Fingerprints the far side holds: found by the lookup, or (added in
        # the pass below) sent as a literal earlier in this object.
        known = {fp: lookup.value is not None for fp, lookup in zip(unique, lookups)}

        # Local pass: decide reference vs literal, store literals in the cache.
        to_insert: List[Tuple[bytes, bytes]] = []
        matched_flags: List[bool] = []
        content_cache = self.content_cache
        cache_clock = (
            getattr(content_cache.device, "clock", None) if content_cache is not None else None
        )
        reference_size = self.reference_size
        compressed_bytes = 0
        for chunk, fingerprint, size in zip(chunks, fingerprints, sizes):
            if known[fingerprint]:
                compressed_bytes += min(reference_size, size)
                matched_flags.append(True)
                continue
            matched_flags.append(False)
            compressed_bytes += size
            cache_address = 0
            if content_cache is not None:
                cache_address, cache_latency = content_cache.store(fingerprint, size, chunk.raw)
                result.cache_write_time_ms += cache_latency
                if advance is not None and tick is not cache_clock and cache_latency:
                    advance(cache_latency)
            known[fingerprint] = True
            to_insert.append((fingerprint, cache_address.to_bytes(8, "big")))
        result.compressed_bytes = compressed_bytes
        result.chunks_matched = sum(matched_flags)
        result.matched_flags = tuple(matched_flags)

        # Round trip 2: install the new fingerprints in one batch.
        if to_insert:
            inserts = self.index.insert_batch(to_insert)
            result.insert_time_ms = self._round_trip_ms(inserts)
            if advance is not None and tick is not index_clock and result.insert_time_ms:
                advance(result.insert_time_ms)
        self.results.append(result)
        return result

    def _round_trip_ms(self, results: List) -> float:
        """Elapsed time of one batched round trip against the index.

        A sharded index executes sub-batches on parallel shards, so its round
        trip completes at the slowest shard's makespan — exposed through the
        ``last_batch`` attribute :class:`~repro.service.cluster.ClusterService`
        maintains.  A plain local index (loop fallback) is serial: the round
        trip is the sum of per-operation latencies, which its own clock
        already advanced by.
        """
        last_batch = getattr(self.index, "last_batch", None)
        if last_batch is not None:
            return last_batch.makespan_ms
        return sum(r.latency_ms for r in results)

    # -- Aggregates -------------------------------------------------------------------

    @property
    def total_original_bytes(self) -> int:
        """Bytes presented to the engine so far."""
        return sum(result.original_bytes for result in self.results)

    @property
    def total_compressed_bytes(self) -> int:
        """Bytes that still had to cross the wire."""
        return sum(result.compressed_bytes for result in self.results)

    @property
    def overall_compression_ratio(self) -> float:
        """original / compressed across every processed object."""
        compressed = self.total_compressed_bytes
        if compressed <= 0:
            return float("inf")
        return self.total_original_bytes / compressed
