"""Workload definitions and the deterministic object streams that feed them.

Every workload is a closed loop with one client: a stream of *objects*, each
a sequence of chunk fingerprints with sizes (descriptor streams) or a real
byte payload the WAN pipeline chunks itself (payload stream).  A stream is a
pure function of ``--seed``; objects are produced lazily, one at a time,
outside the timed intervals, so no more than one object is ever resident.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.wanopt.fingerprint import Chunk
from repro.wanopt.traces import TraceObject

#: ``--seconds`` value (``run_seconds`` in ``BENCHMARK.json``) the object
#: counts below were sized for: a timed phase of 17-20 s on the reference
#: machine, depending on what the host is doing.  Other values scale the
#: timed count linearly; counts stay a pure function of the arguments, never
#: of a clock, so they repeat exactly.
RUN_SECONDS = 20

#: Seed whose exact outputs are frozen in ``frozen.json``.
DEFAULT_SEED = 1

#: Repeats are drawn from this many most recent first-seen fingerprints.  A
#: CLAM of the standard scaled config (16 super tables x 128-item buffers x
#: 8 incarnations) retains between 1,024 and 1,152 items per super table, so
#: 12,000 recent keys (750 +- 27 per table) are always still resident: every
#: repeat must hit, which is what lets the output check be exact.
RECENT_WINDOW = 12_000

#: A workload that "fits the caches" keeps its distinct fingerprints under
#: three quarters of the 65,536-entry digest cache of ``repro.core.hashing``.
DIGEST_CACHE_FIT = 49_152


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what is built, what is streamed, how much."""

    name: str
    #: ``clam`` (bare CLAM, per-chunk loop), ``inproc`` (engine ->
    #: ClusterService) or ``rpc`` (engine -> ParallelClusterService).
    index: str
    #: Whether objects are real bytes (chunked and SHA-1'd inside the timer).
    payload: bool
    chunks_per_object: int
    #: Share of chunks (descriptor streams) or blocks (payload stream) that
    #: repeat earlier content.
    redundancy: float
    #: Leading all-fresh objects that bring the index to steady state.
    prefill_objects: int
    #: Untimed objects (prefill included); with construction they are
    #: ``setup_s``, sized to take 3 s or more.
    warm_objects: int
    #: Timed objects at ``RUN_SECONDS``: a whole number of
    #: buffer-flush cycles (128 items x buffers / inserts per object), so
    #: that every seed meets the same number of flushes in the timed phase
    #: wherever its buffers stood when it began.
    timed_objects: int
    fits_digest_cache: bool
    #: How much more (> 1) or less than the host kernel's this workload's
    #: times move when the host slows: the log-log slope of its measured object
    #: time on ``bench.host_slowness`` that ``--selfcheck`` prints, as measured
    #: on the reference machine (``REPEATABILITY.md``).  The more a workload's
    #: working set outgrows the kernel's, the higher.
    host_sensitivity: float
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="clam_redundant",
        index="clam",
        payload=False,
        chunks_per_object=64,
        redundancy=0.97,
        prefill_objects=288,
        warm_objects=1400,
        timed_objects=8533,
        fits_digest_cache=True,
        host_sensitivity=1.0,
        why=(
            "fits every cache the program has, so most busy time is flash-served "
            "lookups (Bloom + incarnation + flash-sim read) with cache-resident hashing"
        ),
    ),
    Workload(
        name="clam_fresh",
        index="clam",
        payload=False,
        chunks_per_object=64,
        redundancy=0.10,
        prefill_objects=0,
        warm_objects=864,
        timed_objects=2560,
        fits_digest_cache=False,
        host_sensitivity=1.8,
        why=(
            "same CLAM used the other way and larger than its caches: cold-key hashing, "
            "Bloom-negative misses, cuckoo inserts, flushes, eviction, digest-cache overflow"
        ),
    ),
    Workload(
        name="wan_payload_inproc",
        index="inproc",
        payload=True,
        chunks_per_object=0,
        redundancy=0.625,
        prefill_objects=0,
        warm_objects=272,
        timed_objects=1500,
        fits_digest_cache=True,
        host_sensitivity=1.0,
        why=(
            "real bytes through Rabin chunking, SHA-1, the compression engine and an "
            "in-process 2-shard cluster: the only workload where wanopt.chunking works"
        ),
    ),
    Workload(
        name="wan_rpc_2w",
        index="rpc",
        payload=False,
        chunks_per_object=128,
        redundancy=0.88,
        prefill_objects=96,
        warm_objects=288,
        timed_objects=2133,
        fits_digest_cache=True,
        host_sensitivity=1.8,
        why=(
            "descriptor objects through the engine to 2 worker processes: chunking is "
            "absent, so service.wire / service.parallel / service.batch do most of the work"
        ),
    ),
)

WORKLOAD_BY_NAME = {workload.name: workload for workload in WORKLOADS}


def timed_objects_for(workload: Workload, seconds: int, smoke: bool) -> int:
    """Timed objects of a run (a pure function of the arguments)."""
    if smoke:
        return 24
    return max(32, workload.timed_objects * seconds // RUN_SECONDS)


def warm_objects_for(workload: Workload, smoke: bool) -> Tuple[int, int]:
    """``(prefill, warm)`` object counts; smoke runs shrink both."""
    if smoke:
        return min(workload.prefill_objects, 4), 8
    return workload.prefill_objects, workload.warm_objects


class DescriptorStream:
    """Endless objects of ``(fingerprint, declared size)`` chunk descriptors.

    A chunk is fresh (a never-seen SHA-1 fingerprint) or a repeat of one of
    the ``RECENT_WINDOW`` most recent fresh chunks.  How many chunks of an
    object repeat is not drawn: the running total tracks ``redundancy``
    exactly (57 or 58 fresh chunks of 64 at 10 %), and only their positions
    are shuffled.  Objects of one workload therefore do near-identical work
    for every seed; the seed decides which chunks repeat, in which order,
    with which fingerprints and sizes.  The first ``prefill_objects`` objects
    are all fresh.
    """

    def __init__(self, workload: Workload, seed: int, prefill_objects: int) -> None:
        self._rng = random.Random(f"e2e-descriptor-{workload.name}-{seed}")
        self._seed = seed
        self._chunks_per_object = workload.chunks_per_object
        self._fresh_share = 1.0 - workload.redundancy
        self._prefill_objects = prefill_objects
        self._recent: List[Chunk] = []
        self._next_slot = 0
        self._next_object = 0
        self._fresh_owed = 0.0
        self._fresh_chunks = 0

    def __iter__(self) -> Iterator[TraceObject]:
        return self

    def _fresh_chunk(self) -> Chunk:
        fingerprint = hashlib.sha1(b"e2e-chunk-%d-%d" % (self._seed, self._fresh_chunks)).digest()
        chunk = Chunk(fingerprint, self._rng.randrange(4096, 16384))  # declared size
        self._fresh_chunks += 1
        if len(self._recent) < RECENT_WINDOW:
            self._recent.append(chunk)
        else:
            self._recent[self._next_slot] = chunk
            self._next_slot = (self._next_slot + 1) % RECENT_WINDOW
        return chunk

    def __next__(self) -> TraceObject:
        rng = self._rng
        count = self._chunks_per_object
        if self._next_object < self._prefill_objects or not self._recent:
            fresh = count
        else:
            self._fresh_owed += count * self._fresh_share
            fresh = int(self._fresh_owed)
            self._fresh_owed -= fresh
        is_fresh = [True] * fresh + [False] * (count - fresh)
        rng.shuffle(is_fresh)
        chunks = tuple(
            self._fresh_chunk() if flag else self._recent[rng.randrange(len(self._recent))]
            for flag in is_fresh
        )
        obj = TraceObject(self._next_object, chunks)
        self._next_object += 1
        return obj


#: Payload-stream shape: every object is 8 blocks of 64 KB (512 KB): 3 from
#: the shared pool, 2 repeating this branch's recent blocks, 3 fresh.
BLOCK_BYTES = 64 * 1024
BLOCK_PATTERN = ("shared",) * 3 + ("local",) * 2 + ("fresh",) * 3
SHARED_POOL_BLOCKS = 192
LOCAL_WINDOW_BLOCKS = 256


class PayloadStream:
    """Endless ``(object_id, payload bytes)`` pairs with byte-level redundancy.

    Every object holds the same mix of 64 KB blocks (``BLOCK_PATTERN``:
    37.5 % shared corporate pool, 25 % repeats of this branch's 256 most
    recent fresh blocks, 37.5 % fresh random bytes) in a shuffled order, so
    objects do near-identical work for every seed.  A block's bytes are a
    pure function of ``(seed, kind, id)`` and are regenerated on every draw,
    so nothing but the current object is resident; chunk-level redundancy
    then *emerges* from the Rabin chunker, as in ``BranchTraceGenerator``'s
    real-payload mode (a chunk that straddles two blocks repeats only when
    both do).
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self._rng = random.Random(f"e2e-payload-{workload.name}-{seed}")
        self._seed = seed
        self._fresh_blocks = 0
        self._next_object = 0

    def _block(self, kind: str, block_id: int) -> bytes:
        return random.Random(f"e2e-block-{kind}-{self._seed}-{block_id}").randbytes(BLOCK_BYTES)

    def __iter__(self) -> Iterator[Tuple[int, bytes]]:
        return self

    def __next__(self) -> Tuple[int, bytes]:
        rng = self._rng
        pattern = list(BLOCK_PATTERN)
        rng.shuffle(pattern)
        blocks = []
        for kind in pattern:
            if kind == "shared":
                blocks.append(self._block("shared", rng.randrange(SHARED_POOL_BLOCKS)))
            elif kind == "local" and self._fresh_blocks:
                window = min(self._fresh_blocks, LOCAL_WINDOW_BLOCKS)
                blocks.append(self._block("local", self._fresh_blocks - 1 - rng.randrange(window)))
            else:
                blocks.append(self._block("local", self._fresh_blocks))
                self._fresh_blocks += 1
        item = (self._next_object, b"".join(blocks))
        self._next_object += 1
        return item


def make_stream(workload: Workload, seed: int, smoke: bool = False):
    """The object stream of one workload for one seed."""
    if workload.payload:
        return PayloadStream(workload, seed)
    prefill, _warm = warm_objects_for(workload, smoke)
    return DescriptorStream(workload, seed, prefill)
