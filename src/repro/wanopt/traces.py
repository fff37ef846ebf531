"""Synthetic object traces with controlled redundancy.

The paper evaluates its WAN optimizer on packet traces collected at the
University of Wisconsin (grouped into objects by connection 4-tuple) plus
synthetic traces with varying redundancy fractions, and reports results for
traces with ~50 % and ~15 % redundant bytes.  Those packet traces are not
available, so this module generates the synthetic equivalent: a stream of
objects, each described by its content-defined chunks, where a configurable
fraction of chunk bytes repeats content seen earlier in the trace.

Objects are represented as chunk descriptors (fingerprint + size) rather
than raw payloads — the same simplification the paper itself makes by
pre-computing chunks and SHA-1 hashes before the experiment (§8).
:func:`build_payload_objects` builds small real-payload objects for tests
that exercise the actual Rabin chunker end to end.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.wanopt.chunking import RabinChunker
from repro.wanopt.fingerprint import Chunk, chunk_from_bytes, fingerprint_bytes


@dataclass(frozen=True)
class TraceObject:
    """One object (file / connection payload) in a trace."""

    object_id: int
    chunks: Sequence[Chunk]

    @property
    def size_bytes(self) -> int:
        """Total object size."""
        return sum(chunk.size for chunk in self.chunks)

    @property
    def num_chunks(self) -> int:
        """Number of chunks in the object."""
        return len(self.chunks)


@dataclass
class SyntheticTraceGenerator:
    """Generates object streams with a target redundant-byte fraction.

    Parameters
    ----------
    redundancy:
        Target fraction of bytes that duplicate previously seen chunks
        (0.5 and 0.15 reproduce the paper's two traces).
    num_objects:
        Objects to generate.
    mean_object_size:
        Mean object size in bytes; sizes are drawn log-uniformly between a
        quarter of and four times the mean (matching the 100 KB - 10 MB
        spread of Figure 10).
    mean_chunk_size:
        Mean chunk size (the paper uses 4-8 KB chunks).
    locality_window:
        Redundant chunks are drawn from this many most recent distinct
        chunks, modelling the temporal locality of real traffic and keeping
        matches within the fingerprint index's retention.
    seed:
        RNG seed for reproducibility.
    """

    redundancy: float = 0.5
    num_objects: int = 100
    mean_object_size: int = 512 * 1024
    mean_chunk_size: int = 8 * 1024
    locality_window: int = 20_000
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0.0 <= self.redundancy < 1.0:
            raise ValueError("redundancy must be in [0, 1)")
        if self.num_objects <= 0:
            raise ValueError("num_objects must be positive")
        if self.mean_object_size < 4:  # a quarter of it must be a positive size
            raise ValueError("mean_object_size must be at least 4")
        if self.mean_chunk_size < 128:  # twice it must reach the 256-byte floor
            raise ValueError("mean_chunk_size must be at least 128")
        if self.locality_window <= 0:
            raise ValueError("locality_window must be positive")

    def generate(self) -> List[TraceObject]:
        """Produce the full object trace (the same one on every call)."""
        rng = random.Random(self.seed)
        # Object sizes are log-uniform between a quarter of and four times the mean.
        log_low = math.log(self.mean_object_size // 4)
        log_high = math.log(self.mean_object_size * 4)
        low = max(256, self.mean_chunk_size // 2)
        objects: List[TraceObject] = []
        seen_chunks: List[Chunk] = []
        next_chunk_id = 0
        for object_id in range(self.num_objects):
            target_size = int(math.exp(rng.uniform(log_low, log_high)))
            chunks: List[Chunk] = []
            accumulated = 0
            while accumulated < target_size:
                if seen_chunks and rng.random() < self.redundancy:
                    window_start = max(0, len(seen_chunks) - self.locality_window)
                    chunk = seen_chunks[rng.randrange(window_start, len(seen_chunks))]
                else:
                    size = rng.randint(low, self.mean_chunk_size * 2)
                    fingerprint = fingerprint_bytes(
                        b"trace-%d-chunk-%d" % (self.seed, next_chunk_id)
                    )
                    next_chunk_id += 1
                    chunk = Chunk(fingerprint=fingerprint, size=size)
                    seen_chunks.append(chunk)
                chunks.append(chunk)
                accumulated += chunk.size
            objects.append(TraceObject(object_id=object_id, chunks=tuple(chunks)))
        return objects

    def measured_redundancy(self, objects: Optional[List[TraceObject]] = None) -> float:
        """Fraction of bytes in the trace that repeat an earlier chunk."""
        if objects is None:
            objects = self.generate()
        seen: set[bytes] = set()
        redundant = 0
        total = 0
        for obj in objects:
            for chunk in obj.chunks:
                total += chunk.size
                if chunk.fingerprint in seen:
                    redundant += chunk.size
                else:
                    seen.add(chunk.fingerprint)
        return redundant / total if total else 0.0


@dataclass
class BranchTraceGenerator:
    """Per-branch object streams with shared cross-branch content.

    Models N branch offices of one organisation: every branch's traffic
    mixes (a) content drawn from a **shared corporate pool** — the same
    documents, packages and images flowing through every site, which is what
    makes a shared data-center fingerprint index win over per-branch ones —
    with (b) content repeating that branch's own recent history and (c)
    fresh, branch-unique content.

    One draw loop serves both modes: each draw picks a shared pool block, a
    repeat of this branch's history or fresh content, and the RNG is consumed
    the same way in both.  By default (the paper's §8 pre-computed-chunks
    simplification, cheap at any scale) a draw is a synthetic
    ``(fingerprint, size)`` chunk descriptor.  With ``real_payloads=True`` it
    is a byte block instead (shared pool blocks are bit-identical across
    branches), and each object's blocks are joined and cut by the optimized
    :class:`~repro.wanopt.chunking.RabinChunker` and SHA-1-fingerprinted for
    real.  Chunk-level dedup then *emerges* from repeated byte ranges rather
    than being asserted by construction, so measured hit rates sit slightly
    below descriptor mode's (chunks straddling a block edge mix repeated and
    fresh bytes).

    Parameters
    ----------
    num_branches / objects_per_branch:
        Stream shape; object ids are globally unique across branches
        (branch ``b``'s objects start at ``b * objects_per_branch``).
    shared_fraction:
        Probability a block/chunk is drawn from the shared pool
        (cross-branch redundancy); 0 makes every branch's content disjoint.
    local_redundancy:
        Probability a block/chunk repeats one this branch has already seen
        (intra-branch redundancy, as in :class:`SyntheticTraceGenerator`).
    shared_pool_size:
        Distinct blocks in the shared pool; smaller pools mean more
        cross-branch matches.
    seed:
        Master seed; each branch derives an independent substream, and the
        same (seed, pool id) always yields the same shared block, so two
        branches drawing pool block 17 really do carry identical content.
    real_payloads:
        Generate actual bytes and run the real chunk-and-fingerprint
        pipeline (see above).
    average_chunk_size:
        Rabin average chunk size for real-payload mode; defaults to
        ``mean_chunk_size // 8`` so several content-defined chunks land
        inside each redundancy block, keeping the chunk-hit-rate dilution
        from chunks straddling block edges to roughly 10 %.  Raising it
        towards ``mean_chunk_size`` trades dedup parity for fewer chunks
        (fewer index operations).
    """

    num_branches: int = 4
    objects_per_branch: int = 25
    mean_object_size: int = 256 * 1024
    mean_chunk_size: int = 8 * 1024
    shared_fraction: float = 0.3
    local_redundancy: float = 0.2
    shared_pool_size: int = 2_000
    seed: int = 7
    real_payloads: bool = False
    average_chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_branches <= 0 or self.objects_per_branch <= 0:
            raise ValueError("num_branches and objects_per_branch must be positive")
        if self.mean_object_size <= 0 or self.mean_chunk_size < 128:  # chunks are >= 256 B
            raise ValueError("mean_object_size must be positive, mean_chunk_size at least 128")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ValueError("shared_fraction must be in [0, 1]")
        if not 0.0 <= self.local_redundancy <= 1.0:
            raise ValueError("local_redundancy must be in [0, 1]")
        if self.shared_fraction + self.local_redundancy > 1.0:
            raise ValueError("shared_fraction + local_redundancy must be at most 1")
        if self.shared_pool_size <= 0:
            raise ValueError("shared_pool_size must be positive")
        if self.average_chunk_size is not None and self.average_chunk_size < 64:
            raise ValueError("average_chunk_size must be at least 64")
        # Shared-pool payload blocks, materialised lazily (real mode only)
        # and shared across branches so pool block i is bit-identical fleet-wide.
        self._pool_payloads: dict = {}

    def _pool_chunk(self, pool_id: int) -> Chunk:
        """The shared pool's chunk ``pool_id`` — identical for every branch."""
        fingerprint = fingerprint_bytes(
            b"wanopt-shared-%d-%d" % (self.seed, pool_id)
        )
        # Size must be a pure function of the fingerprint so every branch
        # sees the same (fingerprint, size) pair for one piece of content.
        low = max(256, self.mean_chunk_size // 2)
        span = max(1, self.mean_chunk_size * 2 - low)
        size = low + int.from_bytes(fingerprint[:4], "big") % span
        return Chunk(fingerprint=fingerprint, size=size)

    def _pool_payload(self, pool_id: int) -> bytes:
        """The shared pool's *bytes* for ``pool_id`` — identical for every branch.

        Sized exactly like the descriptor-mode pool chunk, derived from a
        seed-and-id keyed RNG so the same (seed, pool id) always yields the
        same content, and cached so a pool block is generated at most once.
        """
        payload = self._pool_payloads.get(pool_id)
        if payload is None:
            size = self._pool_chunk(pool_id).size
            payload = random.Random(b"wanopt-shared-%d-%d" % (self.seed, pool_id)).randbytes(size)
            self._pool_payloads[pool_id] = payload
        return payload

    def generate(self) -> List[List[TraceObject]]:
        """One object stream per branch, ``generate()[b]`` for branch ``b``.

        Every draw is a pool block, a repeat of one of this branch's earlier
        draws, or fresh content: a :class:`Chunk` descriptor, or in
        real-payload mode a byte block.  A real-payload object joins its
        blocks into one payload (the only full copy the pipeline makes) and
        cuts it with the Rabin chunker into zero-copy ``memoryview`` chunks
        with real SHA-1 fingerprints.
        """
        real = self.real_payloads
        pool = self._pool_payload if real else self._pool_chunk
        chunker = RabinChunker(
            average_size=(
                self.average_chunk_size
                if self.average_chunk_size is not None
                else max(64, self.mean_chunk_size // 8)
            )
        )
        low = max(256, self.mean_chunk_size // 2)
        streams: List[List[TraceObject]] = []
        for branch in range(self.num_branches):
            rng = random.Random(self.seed * 1_000_003 + branch)
            history: list = []
            next_local_id = 0
            objects: List[TraceObject] = []
            for index in range(self.objects_per_branch):
                # Spread sizes around the mean.
                target = int(self.mean_object_size * (0.5 + rng.random()))
                draws: list = []
                accumulated = 0
                while accumulated < target:
                    draw = rng.random()
                    if draw < self.shared_fraction:
                        piece = pool(rng.randrange(self.shared_pool_size))
                    elif draw < self.shared_fraction + self.local_redundancy and history:
                        piece = history[rng.randrange(len(history))]
                    elif real:
                        piece = rng.randbytes(rng.randint(low, self.mean_chunk_size * 2))
                    else:
                        size = rng.randint(low, self.mean_chunk_size * 2)
                        fingerprint = fingerprint_bytes(
                            b"wanopt-branch-%d-%d-%d" % (self.seed, branch, next_local_id)
                        )
                        next_local_id += 1
                        piece = Chunk(fingerprint=fingerprint, size=size)
                    history.append(piece)
                    draws.append(piece)
                    accumulated += len(piece) if real else piece.size
                if real:
                    draws = [chunk_from_bytes(piece) for piece in chunker.split(b"".join(draws))]
                objects.append(
                    TraceObject(
                        object_id=branch * self.objects_per_branch + index,
                        chunks=tuple(draws),
                    )
                )
            streams.append(objects)
        return streams


def build_payload_objects(
    num_objects: int = 4,
    object_size: int = 64 * 1024,
    redundancy: float = 0.5,
    average_chunk_size: int = 4096,
    seed: int = 11,
) -> List[TraceObject]:
    """Small objects with *real payloads*, chunked by the Rabin chunker.

    Redundancy is produced by repeating byte ranges from earlier objects;
    used by integration tests and the quickstart example, where running the
    per-byte rolling hash is affordable.
    """
    if not 0.0 <= redundancy < 1.0:
        raise ValueError("redundancy must be in [0, 1)")
    rng = random.Random(seed)
    chunker = RabinChunker(average_size=average_chunk_size)
    previous_payloads: List[bytes] = []
    objects: List[TraceObject] = []
    for object_id in range(num_objects):
        parts: List[bytes] = []
        size = 0
        while size < object_size:
            if previous_payloads and rng.random() < redundancy:
                source = previous_payloads[rng.randrange(len(previous_payloads))]
                start = rng.randrange(max(1, len(source) - average_chunk_size))
                piece = source[start : start + average_chunk_size * 2]
            else:
                piece = rng.randbytes(average_chunk_size * 2)
            parts.append(piece)
            size += len(piece)
        payload = b"".join(parts)[:object_size]
        previous_payloads.append(payload)
        chunks = tuple(chunk_from_bytes(piece) for piece in chunker.split(payload))
        objects.append(TraceObject(object_id=object_id, chunks=chunks))
    return objects
