"""Deterministic hashing and the hash-once :class:`KeyDigest` pipeline.

Python's built-in :func:`hash` is randomised per process for ``str``/``bytes``
and therefore unsuitable for a data structure whose on-"flash" layout must be
deterministic and reproducible across runs.  We use 64-bit FNV-1a with
per-purpose seeds, which is cheap, has good avalanche behaviour for the short
fingerprint-style keys the paper targets (32-64 bit hashes of content chunks)
and needs no dependencies.

BufferHash derives *several* values from one key: the super-table partition
(:data:`PARTITION_SEED`), the two cuckoo buckets (:data:`CUCKOO_SEED_FIRST` /
:data:`CUCKOO_SEED_SECOND`), the two Kirsch-Mitzenmacher Bloom base hashes
(:data:`BLOOM_SEED_H1` / :data:`BLOOM_SEED_H2`), the incarnation page
(:data:`PAGE_SEED`) and, in the service layer, the consistent-hash ring
position (:data:`RING_SEED`).  Naively each layer re-hashes the full key
bytes, so one lookup pays 6-10+ FNV passes.  :class:`KeyDigest` is the
hash-once fix: the key is canonicalised to bytes once at the public API
boundary, each seeded 64-bit digest is computed lazily *at most once* and
memoised, and the Kirsch-Mitzenmacher Bloom positions are memoised per filter
geometry — all **bit-identical** to hashing the key bytes directly with the
same seed, so the on-flash layout does not change.  Values that are one
modulo away from a memoised digest (the super-table partition, the cuckoo
bucket pair, the incarnation page) are *not* memoised: the per-operation
layers of :mod:`repro.core` read the seed memo directly and reduce it
themselves, which costs less than a second memo would.  A FIFO-bounded digest
cache (:func:`as_digest`, O(1) per eviction) additionally reuses digests
across operations on the same key, which is the common case for fingerprint
indexes (a lookup is usually followed by an insert of the same fingerprint).

For measurement, :func:`count_hash_calls` records every full-key FNV pass by
seed (and every digest construction) so tests and ``benchmarks/
bench_hotpath.py`` can assert that each layer hashes a key at most once per
operation.
"""

from __future__ import annotations

import struct
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Tuple, Union

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF

# -- Per-purpose seeds -------------------------------------------------------------
#
# Every layer of the stack hashes keys with its own seed so the derived
# moduli stay independent (see the avalanche note in :func:`fnv1a_64`).  The
# registry below maps each seed to the layer that owns it; instrumentation
# reports hash-call counts per layer through it.

#: Super-table partition index (``BufferHash.table_for``).
PARTITION_SEED = 0x9A27
#: First cuckoo bucket of the in-memory buffer.
CUCKOO_SEED_FIRST = 0xA11CE
#: Second (alternate) cuckoo bucket.
CUCKOO_SEED_SECOND = 0xB0B
#: First Kirsch-Mitzenmacher Bloom base hash.
BLOOM_SEED_H1 = 0x51ED
#: Second Kirsch-Mitzenmacher Bloom base hash.
BLOOM_SEED_H2 = 0xC0FFEE
#: Page assignment within an on-flash incarnation.
PAGE_SEED = 0x17CA
#: Consistent-hash ring position (``repro.service.router``).
RING_SEED = 0x5A4D
#: Page assignment of the unbuffered-ablation CLAM (``use_buffering=False``).
UNBUFFERED_PAGE_SEED = 0xFAB
#: Page assignment of the naive flash-hash baseline.
FLASH_BASELINE_SEED = 0xF1A5
#: Bucket assignment of the BerkeleyDB-style disk-hash baseline.
DISK_BASELINE_SEED = 0xBDB

#: Seed -> human-readable layer name, used by hash-call accounting.
SEED_LAYERS: Dict[int, str] = {
    PARTITION_SEED: "partition",
    CUCKOO_SEED_FIRST: "cuckoo_first",
    CUCKOO_SEED_SECOND: "cuckoo_second",
    BLOOM_SEED_H1: "bloom_h1",
    BLOOM_SEED_H2: "bloom_h2",
    PAGE_SEED: "incarnation_page",
    RING_SEED: "shard_ring",
    UNBUFFERED_PAGE_SEED: "unbuffered_page",
    FLASH_BASELINE_SEED: "flash_baseline",
    DISK_BASELINE_SEED: "disk_baseline",
}


def to_key_bytes(key: "KeyLike") -> bytes:
    """Canonical byte representation of a key.

    ``bytes``-like objects are used as-is, strings are UTF-8 encoded,
    integers are encoded big-endian in the fewest whole bytes that hold them
    (so distinct integers map to distinct byte strings) and a
    :class:`KeyDigest` contributes the bytes it was built from.

    .. note:: **Cross-type collisions are intentional.**  The canonical
       encodings of different key *types* share one byte space, so the int
       ``0x41`` and the bytes ``b"A"`` (and the str ``"A"``) all canonicalise
       to ``b"A"`` and are the *same key*.  BufferHash indexes content
       fingerprints, which arrive as raw bytes of a fixed width; the integer
       encoding exists so tests and examples can use small ints conveniently,
       not to provide a type-tagged key space.  Callers that index both raw
       bytes and their integer forms must disambiguate them before hashing
       (``tests/test_hashing.py`` freezes this behaviour).
    """
    if isinstance(key, (bytes, bytearray, memoryview)):
        return bytes(key)
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, int):
        if key < 0:
            raise ValueError("integer keys must be non-negative")
        length = max(1, (key.bit_length() + 7) // 8)
        return key.to_bytes(length, "big")
    if isinstance(key, KeyDigest):
        return key.data
    raise TypeError(f"unsupported key type: {type(key).__name__}")


# -- Hash-call accounting -----------------------------------------------------------

#: When True, :func:`fnv1a_64` records each full-key pass into the active log.
_counting = False
_active_log: "HashCallLog" = None  # type: ignore[assignment]


class HashCallLog:
    """Counts of full-key hash passes (by seed) and digest constructions."""

    __slots__ = ("by_seed", "digest_builds")

    def __init__(self) -> None:
        self.by_seed: Dict[int, int] = {}
        self.digest_builds = 0

    @property
    def total(self) -> int:
        """Total full-key FNV passes recorded."""
        return sum(self.by_seed.values())

    def by_layer(self) -> Dict[str, int]:
        """Pass counts keyed by layer name (unknown seeds keyed by hex)."""
        out: Dict[str, int] = {}
        for seed, count in self.by_seed.items():
            layer = SEED_LAYERS.get(seed, hex(seed))
            out[layer] = out.get(layer, 0) + count
        return out

    def snapshot(self) -> Dict[str, float]:
        """Flat copy: per-layer counts plus totals (for JSON emission)."""
        out: Dict[str, float] = {f"fnv_{k}": float(v) for k, v in self.by_layer().items()}
        out["fnv_total"] = float(self.total)
        out["digest_builds"] = float(self.digest_builds)
        return out


@contextmanager
def count_hash_calls() -> Iterator[HashCallLog]:
    """Record every full-key FNV pass (by seed) and digest build in a block.

    Nested use is not supported; the counter adds one branch to the hash hot
    path, so it stays disabled outside the ``with`` block.
    """
    global _counting, _active_log
    log = HashCallLog()
    previous = (_counting, _active_log)
    _counting, _active_log = True, log
    try:
        yield log
    finally:
        _counting, _active_log = previous


def fnv1a_64(data: bytes, seed: int = 0) -> int:
    """64-bit FNV-1a hash of ``data``, mixed with ``seed`` and finalised.

    This is the only function that traverses the full key bytes; everything
    else derives from its output.

    The finalising mix (MurmurHash3 fmix64, inlined below — one call frame
    per pass matters when keys are hashed millions of times) spreads entropy
    into every bit.  Plain FNV-1a has the property that the low ``k`` bits of
    the output depend only on the low bits of the state, so two FNV variants
    with different seeds stay correlated modulo powers of two; BufferHash
    takes *several* independent moduli of a key's hashes (super-table
    partition, cuckoo buckets, Bloom positions, incarnation page), and
    without the finaliser conditioning on one of them (e.g. all keys of one
    super table) would badly skew the others.
    """
    if _counting:
        counts = _active_log.by_seed
        counts[seed] = counts.get(seed, 0) + 1
    prime = _FNV64_PRIME
    mask = _MASK64
    value = (_FNV64_OFFSET ^ (seed * _GOLDEN64)) & mask
    for byte in data:
        value = ((value ^ byte) * prime) & mask
    # fmix64 finaliser (see docstring).
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & mask
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & mask
    return value ^ (value >> 33)


class KeyDigest:
    """Hash-once handle for one key: canonical bytes plus memoised digests.

    A digest is built from a key's canonical bytes exactly once and then
    threaded through every layer in place of the raw key (it is itself a
    :data:`KeyLike`, accepted anywhere a key is).  Each seeded 64-bit digest
    is computed lazily on first use and memoised, as are the derived
    Kirsch-Mitzenmacher Bloom positions per ``(count, modulus)`` geometry, so
    a lookup that consults the partition map, the cuckoo buffer, several
    incarnations' Bloom filters and the incarnation page hashes the key bytes
    at most once per seed — instead of once per layer *use*.

    Every derived value is bit-identical to calling :func:`hash_key` /
    :func:`double_hashes` on the raw key with the same arguments; the class
    changes only how often the bytes are traversed, never what is computed.

    The per-operation layers of :mod:`repro.core` (partitioning, the cuckoo
    buffer, the incarnation probe) read the ``_seeded`` memo directly and
    fall back to :meth:`digest` on a miss, which keeps a warm key's operation
    free of hashing call frames; only :meth:`digest` and :meth:`from_wire`
    write to it.
    """

    __slots__ = ("data", "_seeded", "_positions")

    def __init__(self, key: "KeyLike") -> None:
        self.data = key if type(key) is bytes else to_key_bytes(key)
        self._seeded: Dict[int, int] = {}
        self._positions: Dict[Tuple[int, int], List[int]] = {}
        if _counting:
            _active_log.digest_builds += 1

    def digest(self, seed: int = 0) -> int:
        """The 64-bit seeded digest, computed on first use and memoised."""
        value = self._seeded.get(seed)
        if value is None:
            value = fnv1a_64(self.data, seed)
            self._seeded[seed] = value
        return value

    def bloom_positions(self, count: int, modulus: int) -> List[int]:
        """Kirsch-Mitzenmacher positions, memoised per (count, modulus)."""
        key = (count, modulus)
        positions = self._positions.get(key)
        if positions is None:
            h1 = self.digest(BLOOM_SEED_H1)
            h2 = self.digest(BLOOM_SEED_H2) | 1  # odd: coprime with 2^k moduli
            positions = [((h1 + i * h2) & _MASK64) % modulus for i in range(count)]
            self._positions[key] = positions
        return positions

    def to_wire(self) -> bytes:
        """Serialise for the shard wire protocol (:mod:`repro.service.wire`).

        Carries the canonical key bytes plus every seeded digest memoised so
        far, so a worker process that receives the key resumes with the hash
        work the client side already paid for.  Derived Bloom positions are
        geometry-dependent and cheap to re-derive from the digests, so they
        do not travel.  The format is little-endian: a 4-byte key length, the
        key bytes, a 1-byte memo count, then ``(seed, digest)`` pairs of 8
        bytes each, in ascending seed order (deterministic framing).
        """
        seeded = self._seeded
        if len(seeded) > 255:  # pragma: no cover - ~10 seeds exist in the codebase
            seeded = dict(sorted(seeded.items())[:255])
        parts = [struct.pack("<IB", len(self.data), len(seeded)), self.data]
        for seed, value in sorted(seeded.items()):
            parts.append(struct.pack("<QQ", seed, value))
        return b"".join(parts)

    @classmethod
    def from_wire(cls, payload: bytes, offset: int = 0) -> Tuple["KeyDigest", int]:
        """Inverse of :meth:`to_wire`; returns the digest and the next offset.

        The memoised seeds are restored verbatim.  Digests are value-pure
        (a seeded digest depends only on the key bytes), so a restored memo
        can never change behaviour — only skip recomputation on the worker.
        """
        key_len, seed_count = struct.unpack_from("<IB", payload, offset)
        offset += 5
        digest = cls(bytes(payload[offset : offset + key_len]))
        offset += key_len
        for _ in range(seed_count):
            seed, value = struct.unpack_from("<QQ", payload, offset)
            digest._seeded[seed] = value
            offset += 16
        return digest, offset

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KeyDigest({self.data!r}, seeds={sorted(self._seeded)})"


KeyLike = Union[bytes, bytearray, memoryview, str, int, KeyDigest]


# -- Cross-operation digest cache ---------------------------------------------------
#
# Fingerprint workloads touch the same keys repeatedly (a dedup lookup is
# followed by an insert of the same fingerprint; WAN-opt caches re-query hot
# chunks), so digests are also reused *across* operations through a small
# FIFO-bounded cache.  The cache is value-pure — a digest depends only on the
# key bytes — so hits can never change behaviour, only skip recomputation.
#
# Eviction is FIFO by first insertion and O(1): ``_DIGEST_RING`` holds the
# cached keys oldest-first beside the map.  (Popping the first key of the
# dict itself — ``next(iter(cache))`` — rescans the tombstones that earlier
# evictions left at the head of its entry table: ~30 us per eviction at the
# default capacity, paid on every new key once the cache is full.)  The two
# structures always hold the same keys; only the functions below touch them.

_DIGEST_CACHE: Dict[bytes, KeyDigest] = {}
_DIGEST_RING: Deque[bytes] = deque()
_digest_cache_capacity = 1 << 16


def as_digest(key: KeyLike) -> KeyDigest:
    """The :class:`KeyDigest` for ``key``, reusing a cached digest if present.

    Called once per operation at each public API boundary; passing an
    existing digest through is a no-op, so nested boundaries (service router
    -> CLAM -> BufferHash) share one digest per operation.  A cache hit does
    not refresh the entry's position: the oldest-inserted key leaves first.
    """
    if type(key) is KeyDigest:
        return key
    data = key if type(key) is bytes else to_key_bytes(key)
    digest = _DIGEST_CACHE.get(data)
    if digest is None:
        digest = KeyDigest(data)
        if _digest_cache_capacity > 0:
            ring = _DIGEST_RING
            if len(ring) >= _digest_cache_capacity:
                del _DIGEST_CACHE[ring.popleft()]
            ring.append(data)
            _DIGEST_CACHE[data] = digest
    return digest


def clear_digest_cache() -> None:
    """Drop every cached digest (tests and memory-sensitive callers)."""
    _DIGEST_CACHE.clear()
    _DIGEST_RING.clear()


def set_digest_cache_capacity(capacity: int) -> None:
    """Bound the cross-operation digest cache (0 disables and empties it).

    Shrinking evicts oldest-first, one O(1) pop per removed entry.
    """
    global _digest_cache_capacity
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    _digest_cache_capacity = capacity
    ring = _DIGEST_RING
    while len(ring) > capacity:
        del _DIGEST_CACHE[ring.popleft()]


def digest_cache_info() -> Dict[str, int]:
    """Current size and capacity of the digest cache."""
    return {"size": len(_DIGEST_RING), "capacity": _digest_cache_capacity}


def canonical_key(key: KeyLike, hash_once: bool) -> KeyLike:
    """The one canonicalisation policy used at every public API boundary.

    Hash-once mode wraps the key in a (cached) :class:`KeyDigest` that every
    layer below reuses; the ablation mode passes canonical bytes through so
    each layer re-hashes exactly as the pre-digest implementation did.  Both
    are idempotent, so nested boundaries (service router -> CLAM ->
    BufferHash) canonicalise in O(1) after the first.
    """
    if hash_once:
        return key if type(key) is KeyDigest else as_digest(key)
    return key_data(key)


def key_data(key: KeyLike) -> bytes:
    """Canonical bytes of ``key`` without copying when already canonical."""
    if type(key) is KeyDigest:
        return key.data
    if type(key) is bytes:
        return key
    return to_key_bytes(key)


def hash_key(key: KeyLike, seed: int = 0) -> int:
    """64-bit hash of an arbitrary key with the given seed.

    Digest-aware: a :class:`KeyDigest` answers from (or fills) its memo, any
    other key type is canonicalised and hashed directly.  Both paths return
    the same value for the same key bytes.
    """
    if type(key) is KeyDigest:
        return key.digest(seed)
    return fnv1a_64(key if type(key) is bytes else to_key_bytes(key), seed)


def double_hashes(key: KeyLike, count: int, modulus: int) -> List[int]:
    """``count`` hash values in ``[0, modulus)`` via double hashing.

    Classic Kirsch-Mitzenmacher construction: two independent base hashes
    (:data:`BLOOM_SEED_H1` / :data:`BLOOM_SEED_H2`) combine linearly to
    simulate ``count`` independent hash functions, which is what Bloom
    filters need.  Digest-aware like :func:`hash_key`; with a
    :class:`KeyDigest` the positions for one filter geometry are computed
    once and shared by every Bloom filter of that geometry the key meets.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if type(key) is KeyDigest:
        return key.bloom_positions(count, modulus)
    data = key if type(key) is bytes else to_key_bytes(key)
    h1 = fnv1a_64(data, seed=BLOOM_SEED_H1)
    h2 = fnv1a_64(data, seed=BLOOM_SEED_H2) | 1  # odd: coprime with 2^k moduli
    return [((h1 + i * h2) & _MASK64) % modulus for i in range(count)]
