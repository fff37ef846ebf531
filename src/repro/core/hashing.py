"""Deterministic hashing and the hash-once :class:`KeyDigest` pipeline.

Python's built-in :func:`hash` is randomised per process for ``str``/``bytes``
and therefore unsuitable for a data structure whose on-"flash" layout must be
deterministic and reproducible across runs.  We use 64-bit FNV-1a with
per-purpose seeds, which is cheap, has good avalanche behaviour for the short
fingerprint-style keys the paper targets (32-64 bit hashes of content chunks)
and needs no dependencies.

BufferHash derives *several* values from one key: the super-table partition,
the two cuckoo buckets, the two Kirsch-Mitzenmacher Bloom base hashes, the
incarnation page and, in the service layer, the consistent-hash ring position
(one seed each, :data:`PARTITION_SEED` ... :data:`RING_SEED`).  This module is
the only one that knows how key bytes become those words.  Every public
boundary and every stand-alone data structure normalises the key it is handed
with one line — ``key if type(key) is KeyDigest else as_digest(key)`` — and
below that line a key *is* a :class:`KeyDigest`: layers index ``digest.words``
or call :func:`ring_position`, and never see a seed.  "Hash once" is literal:
the first layer of a CLAM that needs any of the six CLAM words gets all six
from **one traversal** of the key bytes (:func:`clam_words` runs FNV-1a
lane-wise on one Python integer) — **bit-identical** to six :func:`fnv1a_64`
calls, which is what fixes the on-flash layout.  The ring word, all a routing
parent needs, keeps its own single-seed pass, as do the baseline and ablation
seeds.  :func:`fnv1a_64`, :func:`hash_key` and :func:`double_hashes` on raw
bytes are the reference definitions of every derived value (tests compare the
pipeline against them) and the hash of things that are not CLAM keys, such as
a router's virtual nodes.

A cached :class:`KeyDigest` costs about 233 B of DRAM.  The FIFO digest cache
(:func:`as_digest`) reuses digests across operations on the same key, and a
shard worker interns the keys it decodes from the wire in it
(:func:`repro.service.wire.decode_batch_request`), so a key is hashed once per
residency in a process's cache, not once per operation that crosses a process
boundary; only the canonical bytes cross it.  The cache holds what the live
indexes of its process retain: its capacity is ``min(65,536, their retention
summed)``, and 65,536 while none is alive (:func:`hold_digest_cache`).

For measurement, :func:`count_hash_calls` records every traversal of a key's
bytes and every digest construction, so tests and ``bench_hotpath`` can assert
that a cold CLAM operation walks its key exactly once and a warm one never.
"""

from __future__ import annotations

import gc
import sys
import weakref
from array import array
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Union

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

#: Super-table partition index (``CLAM.table_for``).
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
#: Bucket assignment of the BerkeleyDB-style disk-hash baseline.
DISK_BASELINE_SEED = 0xBDB

#: The seeds of the six CLAM words, in the order of :attr:`KeyDigest.words`.
CLAM_SEEDS = (
    PARTITION_SEED,
    CUCKOO_SEED_FIRST,
    CUCKOO_SEED_SECOND,
    BLOOM_SEED_H1,
    BLOOM_SEED_H2,
    PAGE_SEED,
)
#: Indexes into :attr:`KeyDigest.words` (and the result of :func:`clam_words`).
PARTITION_WORD = 0
CUCKOO_FIRST_WORD = 1
CUCKOO_SECOND_WORD = 2
BLOOM_H1_WORD = 3
BLOOM_H2_WORD = 4
PAGE_WORD = 5
#: Not a seed: the key under which hash-call accounting logs one fused
#: traversal that yields all six CLAM words (:func:`clam_words`).
CLAM_WORDS_SEED = -1

#: Seed -> human-readable layer name, used by hash-call accounting.
SEED_LAYERS: Dict[int, str] = {
    CLAM_WORDS_SEED: "clam_words",
    PARTITION_SEED: "partition",
    CUCKOO_SEED_FIRST: "cuckoo_first",
    CUCKOO_SEED_SECOND: "cuckoo_second",
    BLOOM_SEED_H1: "bloom_h1",
    BLOOM_SEED_H2: "bloom_h2",
    PAGE_SEED: "incarnation_page",
    RING_SEED: "shard_ring",
    UNBUFFERED_PAGE_SEED: "unbuffered_page",
    DISK_BASELINE_SEED: "disk_baseline",
}


def to_key_bytes(key: "KeyLike") -> bytes:
    """Canonical byte representation of a key.

    ``bytes``-like objects are used as-is, strings are UTF-8 encoded,
    integers are encoded big-endian in the fewest whole bytes that hold them
    (so distinct integers map to distinct byte strings) and a
    :class:`KeyDigest` contributes the bytes it was built from.

    .. note:: **Cross-type collisions are intentional.**  The int ``0x41``, the
       bytes ``b"A"`` and the str ``"A"`` are the *same key*: BufferHash
       indexes fixed-width content fingerprints, and the integer encoding is
       a convenience for tests and examples, not a type-tagged key space
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

#: When True, every traversal of a key's bytes is recorded into the active log.
_counting = False
_active_log: "HashCallLog" = None  # type: ignore[assignment]


class HashCallLog:
    """Counts of key-byte traversals (by seed) and digest constructions.

    A single-seed :func:`fnv1a_64` pass is counted under its seed; a fused
    :func:`clam_words` traversal is counted once, under
    :data:`CLAM_WORDS_SEED`, whatever number of words it yields.
    """

    __slots__ = ("by_seed", "digest_builds")

    def __init__(self) -> None:
        self.by_seed: Dict[int, int] = {}
        self.digest_builds = 0

    @property
    def total(self) -> int:
        """Number of times the bytes of a key were walked."""
        return sum(self.by_seed.values())

    def by_layer(self) -> Dict[str, int]:
        """Traversal counts keyed by layer name (unknown seeds keyed by hex)."""
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
    """Record every key-byte traversal (by seed) and digest build in a block
    (not nested; outside one the hash hot path pays one branch)."""
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

    The reference every derived value is defined by: this and
    :func:`clam_words` (the same arithmetic for six seeds at once) are the
    only functions that traverse the full key bytes.

    The finalising mix (MurmurHash3 fmix64, inlined: one call frame per pass
    matters) spreads entropy into every bit.  Without it the low ``k`` bits of
    FNV-1a depend only on the low bits of the state, so differently seeded
    variants stay correlated modulo powers of two, and conditioning on one of
    BufferHash's moduli (e.g. all keys of one super table) would skew the others.
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


# Lane packing for :func:`clam_words`: lane ``i`` (bits ``128 * i`` and up)
# carries the FNV state of ``CLAM_SEEDS[i]`` in its low 64 bits.  The widest
# factor is a 64-bit fmix64 constant, so a lane's product stays below 2^128
# and never reaches its neighbour; the FNV prime itself is below 2^41.
_LANE_BITS = 128
_LANE_ONES = sum(1 << (_LANE_BITS * lane) for lane in range(len(CLAM_SEEDS)))
_LANE_MASK = _MASK64 * _LANE_ONES
_LANE_OFFSETS = sum(
    ((_FNV64_OFFSET ^ (seed * _GOLDEN64)) & _MASK64) << (_LANE_BITS * lane)
    for lane, seed in enumerate(CLAM_SEEDS)
)
#: ``_LANE_BYTES[b]`` is byte ``b`` repeated in every lane.
_LANE_BYTES = [byte * _LANE_ONES for byte in range(256)]
_LANE_STATE_SIZE = _LANE_BITS * len(CLAM_SEEDS) // 8
_BIG_ENDIAN = sys.byteorder == "big"


def clam_words(data: bytes) -> "array[int]":
    """``fnv1a_64(data, seed)`` for every seed of :data:`CLAM_SEEDS`, in one
    traversal of ``data``, as an ``array('Q')`` of six words.

    Each step of :func:`fnv1a_64` — xor a byte in, multiply, reduce modulo
    2^64, and the shifts and multiplications of the finaliser — is applied to
    all six states at once, as one operation on a 768-bit integer.  The words
    are the low halves of the lanes, read straight out of the state's bytes:
    48 contiguous bytes, not six integer objects.
    """
    if _counting:
        counts = _active_log.by_seed
        counts[CLAM_WORDS_SEED] = counts.get(CLAM_WORDS_SEED, 0) + 1
    prime = _FNV64_PRIME
    mask = _LANE_MASK
    lane_bytes = _LANE_BYTES
    state = _LANE_OFFSETS
    for byte in data:
        state = ((state ^ lane_bytes[byte]) * prime) & mask
    # A lane's high half is zero here, so the shift pulls nothing in from the
    # lane above that the mask does not drop again.
    state ^= (state >> 33) & mask
    state = (state * 0xFF51AFD7ED558CCD) & mask
    state ^= (state >> 33) & mask
    state = (state * 0xC4CEB9FE1A85EC53) & mask
    state ^= (state >> 33) & mask
    # Every other little-endian item is a lane's (zero) high half.
    words = array("Q", state.to_bytes(_LANE_STATE_SIZE, "little"))[::2]
    if _BIG_ENDIAN:
        words.byteswap()
    return words


_CLAM_WORD_INDEX = {seed: index for index, seed in enumerate(CLAM_SEEDS)}


def walks_bloom_positions(modulus: int) -> bool:
    """Whether a filter of ``modulus`` bits walks a key's Bloom positions from
    its words instead of asking :meth:`KeyDigest.bloom_positions`.

    With ``low = modulus - 1``, the walk starts at ``words[BLOOM_H1_WORD] &
    low`` and adds ``step = (words[BLOOM_H2_WORD] | 1) & low`` per probe,
    masked by ``low``.  That equals :func:`double_hashes` only for a power of
    two up to 2^64, where reducing modulo 2^64 and then modulo ``modulus``
    keeps just the low bits of ``h1 + i * h2``."""
    return modulus & (modulus - 1) == 0 and 0 < modulus <= 1 << 64


class KeyDigest:
    """Hash-once handle for one key: canonical bytes plus memoised digests.

    A digest is built from a key's canonical bytes exactly once and then
    threaded through every layer in place of the raw key (it is itself a
    :data:`KeyLike`, accepted anywhere a key is).  What it memoises:

    ``words``
        the six CLAM words in :data:`CLAM_SEEDS` order, one ``array('Q')``,
        or ``None`` until the first CLAM layer asks; filled all at once by
        one :func:`clam_words` traversal.  The per-operation layers of
        :mod:`repro.core` read ``digest.words or digest.clam_words()`` and
        index it (:data:`PARTITION_WORD` ... :data:`PAGE_WORD`), which keeps
        a warm key's operation free of hashing call frames.
    ``ring``
        the consistent-hash ring word, from its own :func:`fnv1a_64` pass:
        all a process that only routes ever computes.
    any other seed
        in a dict that exists only once one was asked for (the baselines
        and ablations).

    Bloom positions are not kept: a power-of-two filter walks them from
    ``words`` (:func:`walks_bloom_positions`), and :meth:`bloom_positions`
    computes them afresh.  Every derived value is bit-identical to
    :func:`hash_key` / :func:`double_hashes` on the raw key.
    """

    __slots__ = ("data", "words", "ring", "_other")

    def __init__(self, key: "KeyLike") -> None:
        self.data = key if type(key) is bytes else to_key_bytes(key)
        self.words: Optional["array[int]"] = None
        self.ring: Optional[int] = None
        self._other: Optional[Dict[int, int]] = None
        if _counting:
            _active_log.digest_builds += 1

    def clam_words(self) -> "array[int]":
        """The six CLAM words, hashing the key (once, for all six) if needed."""
        words = self.words
        if words is None:
            words = self.words = clam_words(self.data)
        return words

    def digest(self, seed: int = 0) -> int:
        """The 64-bit seeded digest, computed on first use and memoised."""
        if seed == RING_SEED:
            return ring_position(self)
        index = _CLAM_WORD_INDEX.get(seed)
        if index is not None:
            return (self.words or self.clam_words())[index]
        other = self._other
        if other is None:
            other = self._other = {}
        value = other.get(seed)
        if value is None:
            value = other[seed] = fnv1a_64(self.data, seed)
        return value

    def bloom_positions(self, count: int, modulus: int) -> List[int]:
        """Kirsch-Mitzenmacher positions, a new list on every call.

        Equal to :func:`double_hashes` of the key bytes, element for element,
        for any modulus; only the words they are computed from are memoised.
        """
        return bloom_positions(self.words or self.clam_words(), count, modulus)

    def memoised(self) -> Dict[int, int]:
        """Seed -> digest for every seed this handle has hashed so far; a
        copy, for tests and debugging."""
        out = dict(self._other) if self._other else {}
        if self.words is not None:
            out.update(zip(CLAM_SEEDS, self.words))
        if self.ring is not None:
            out[RING_SEED] = self.ring
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KeyDigest({self.data!r}, seeds={sorted(self.memoised())})"


KeyLike = Union[bytes, bytearray, memoryview, str, int, KeyDigest]


def bloom_positions(words: Sequence[int], count: int, modulus: int) -> List[int]:
    """The Kirsch-Mitzenmacher positions of the key whose CLAM words these are."""
    h1 = words[BLOOM_H1_WORD]
    h2 = words[BLOOM_H2_WORD] | 1  # odd: coprime with 2^k moduli
    return [((h1 + i * h2) & _MASK64) % modulus for i in range(count)]


# -- Cross-operation digest cache ---------------------------------------------------
#
# Value-pure — a digest depends only on the key bytes — so a hit can never
# change behaviour, only skip recomputation.  Eviction is FIFO by first
# insertion and O(1): ``_DIGEST_RING`` holds the cached keys oldest-first
# beside the map (popping the dict's first key instead rescans the tombstones
# earlier evictions left at the head of its entry table, ~30 us at 65,536
# entries).  The two always hold the same keys; only the functions below touch
# them.
_DIGEST_CACHE: Dict[bytes, KeyDigest] = {}
_DIGEST_RING: Deque[bytes] = deque()
#: The capacity while no index is alive, and the most it ever is.
_DIGEST_CACHE_CEILING = 1 << 16
_digest_cache_capacity = _DIGEST_CACHE_CEILING
#: What each live index retains, by hold (:func:`hold_digest_cache`).
_HOLDS: Dict[object, int] = {}


def as_digest(key: KeyLike) -> KeyDigest:
    """The :class:`KeyDigest` for ``key``, reusing a cached digest if present.

    The one way a key that is not yet a digest becomes one.  Boundaries test
    ``type(key) is KeyDigest`` inline before calling, so a digest handed down
    (service router -> CLAM -> super table) costs no call; that
    a digest passes through unchanged here too keeps the function total.  A
    cache hit does not refresh the entry's position: the oldest-inserted key
    leaves first.
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


def hold_digest_cache(owner: object, items: int) -> None:
    """Count the ``items`` the index ``owner`` retains towards the cache's
    capacity until ``owner`` is collected."""
    if items < 0:
        raise ValueError("items must be non-negative")
    hold = object()
    _HOLDS[hold] = items
    weakref.finalize(owner, _fit_digest_cache, hold).atexit = False
    _fit_digest_cache()


def drop_digest_cache_holds() -> None:
    """Forget every hold: a forked shard worker serves none of the indexes it
    inherited from its parent."""
    _HOLDS.clear()
    _fit_digest_cache()


def _fit_digest_cache(released: object = None) -> None:
    """Set the capacity from the holds left once ``released`` is dropped.
    Shrinking evicts oldest-first, then rebuilds the map: a dict never gives
    its table back on ``del``."""
    global _DIGEST_CACHE, _digest_cache_capacity
    _HOLDS.pop(released, None)
    held = sum(_HOLDS.values()) if _HOLDS else _DIGEST_CACHE_CEILING
    capacity = _digest_cache_capacity = min(_DIGEST_CACHE_CEILING, held)
    ring = _DIGEST_RING
    if len(ring) <= capacity:
        return
    # A finalizer the collector ran here could release a hold and re-enter.
    collecting = gc.isenabled()
    gc.disable()
    try:
        while len(ring) > capacity:
            del _DIGEST_CACHE[ring.popleft()]
        _DIGEST_CACHE = {data: _DIGEST_CACHE[data] for data in ring}
    finally:
        if collecting:
            gc.enable()


def digest_cache_info() -> Dict[str, int]:
    """Current size and capacity of the digest cache."""
    return {"size": len(_DIGEST_RING), "capacity": _digest_cache_capacity}


def ring_position(key: KeyLike) -> int:
    """Where ``key`` sits on the consistent-hash ring of
    :mod:`repro.service.router`: its :data:`RING_SEED` word, hashed on first
    use and kept on the key's (cached) digest."""
    digest = key if type(key) is KeyDigest else as_digest(key)
    value = digest.ring
    if value is None:
        value = digest.ring = fnv1a_64(digest.data, RING_SEED)
    return value


def key_data(key: KeyLike) -> bytes:
    """Canonical bytes of ``key`` without copying when already canonical."""
    if type(key) is KeyDigest:
        return key.data
    if type(key) is bytes:
        return key
    return to_key_bytes(key)


def hash_key(key: KeyLike, seed: int = 0) -> int:
    """64-bit hash of an arbitrary key with the given seed.

    The reference definition of a seeded key hash (raw bytes in, one
    :func:`fnv1a_64` pass) and the hash the baselines use; the CLAM layers do
    not call it, they read a digest's words.  Digest-aware: a
    :class:`KeyDigest` answers from (or fills) its memo, any other key type
    is canonicalised and hashed directly.  Both paths return the same value
    for the same key bytes.
    """
    if type(key) is KeyDigest:
        return key.digest(seed)
    return fnv1a_64(key if type(key) is bytes else to_key_bytes(key), seed)


def double_hashes(key: KeyLike, count: int, modulus: int) -> List[int]:
    """``count`` hash values in ``[0, modulus)`` via double hashing.

    Kirsch-Mitzenmacher: two base hashes (:data:`BLOOM_SEED_H1` /
    :data:`BLOOM_SEED_H2`) combine linearly into ``count`` hash functions.  On
    raw bytes this is the reference definition of a key's Bloom positions; a
    :class:`KeyDigest` answers from its words (:meth:`KeyDigest.bloom_positions`).
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
