"""Content-defined chunking with a Rabin-Karp rolling hash.

WAN optimizers and deduplication systems cut byte streams into chunks at
positions determined by the *content* (not fixed offsets), so that inserting
a byte near the start of a file only perturbs one chunk boundary instead of
shifting every subsequent chunk.  The classic scheme (LBFS, cited by the
paper as [34]) slides a fixed-width window over the data, maintains a
Rabin-Karp rolling hash of the window and declares a boundary whenever the
hash matches a target pattern modulo the average chunk size.

The paper's evaluation pre-computes chunk boundaries and SHA-1 hashes (§8)
because content-defined chunking is the CPU bottleneck of a WAN optimizer.
This module makes the real-byte path affordable instead of dodging it; two
implementations produce **bit-identical boundaries** (same polynomial, same
residue rule, frozen by ``tests/test_chunking_golden.py``):

* :meth:`RabinChunker.reference_boundaries` — the original per-byte pure
  Python loop, kept verbatim.  It is the frozen reference for golden and
  property tests, the "before" side of ``benchmarks/bench_chunking.py``, and
  the path every chunker takes when numpy is not importable or when
  ``min_size < WINDOW``;
* the **tiled scan** (numpy, ``min_size >= WINDOW``) — inside a chunk, once
  the window is full, the rolling hash at position ``p`` is simply the hash
  of ``data[p-W:p]``, independent of where the chunk started.  So candidate
  cut points are computed a cache-sized tile of positions at a time —
  per-byte terms ``data[j]·B^(-j)``, their 48-wide window sums by doubling,
  one multiply by ``B^(p-1)``, all mod ``P`` — with scratch that is O(tile)
  whatever the object size.  When ``min_size < WINDOW`` a boundary may be
  declared while the window is still filling (the hash then depends on the
  chunk start), which a position-local scan cannot express.

With ``min_size >= WINDOW`` the first eligible cut, ``start + min_size``,
already has a full window inside the chunk, so whether a chunk ends at ``p``
depends only on ``data[start:p]``: no window consulted reaches before the
start, and the forced cut at ``start + max_size`` is a matter of length.  A
cut is therefore a function of the chunk's own bytes, and the numpy path
walks chunk starts with a **chunk cache** per chunker: a chunk is found by
its first ``_KEY_BYTES`` bytes and emitted again, without scanning, when its
length and SHA-256 match the bytes at the new start; otherwise the tiled
scan runs from ``start + min_size - WINDOW``, only as far as the cut needs
(candidates already computed serve later starts).  A digest mismatch falls
back to the scan, and a cut at the end of the data (a chunk the data merely
stopped) is never stored.  A SHA-256 collision could only move a cut, not
corrupt data: a chunk's fingerprint is the SHA-1 of the bytes it holds.  The
cache holds ``_CACHE_ENTRIES`` (8,192) chunks, evicts oldest-first and comes
to about 1.4 MB when full; it pays only on repeated content.

:meth:`RabinChunker.split` yields zero-copy ``memoryview`` slices; callers
that need owned bytes (the public ``Chunk.payload`` edge) materialise them
exactly once per object.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from hashlib import sha256 as _sha256
from typing import Deque, Dict, Iterator, List, Tuple

try:  # Optional acceleration: the reference loop is always available.
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

#: Whether the tiled scan can run at all; tests and benchmarks gate on this
#: instead of re-probing the import themselves.
HAVE_NUMPY = _np is not None

#: Rolling-hash window width in bytes (the LBFS scheme's 48).
_WINDOW_SIZE = 48
_PRIME = 1_000_000_007
_BASE = 257

_LEADING_FACTOR = pow(_BASE, _WINDOW_SIZE - 1, _PRIME)

#: Modular inverse of the base: ``(BASE * _BASE_INVERSE) % PRIME == 1``.
_BASE_INVERSE = pow(_BASE, _PRIME - 2, _PRIME)

#: Window starts hashed per tile of the scan.  Measured (random
#: bytes, average 8,192, 512 KiB objects, 2.1 GHz Xeon with 4 MiB of L2,
#: numpy 2.4): an array pass costs 0.2-0.4 ns/element while the scratch
#: stays in cache against 0.6-1.0 streamed, and a numpy call 1.5-2 us, so
#: small tiles pay per call and large ones per miss — 1,024: 17.9 ns/B,
#: 4,096: 8.8, 8,192: 7.0, 12,288: 6.3, 16,384 to 65,536: 5.8-6.1, 131,072:
#: 7.7-8.5.  At 16,384 the two scratch rows and the two power tables come
#: to 0.5 MiB, which a 1 MiB L2 holds as well.
_TILE = 16_384

#: ``(BASE^-i mod PRIME, BASE^i mod PRIME)`` for tile-local ``i``, built by
#: the first scan and shared by every chunker in the process.
_TILE_POWERS = None

#: Chunks a chunker remembers, oldest-first out.  Measured on the timed
#: objects of ``wan_payload_inproc`` at seed 1 (8 KiB average, 512 KiB
#: objects, 62.5 % of blocks repeated): 38.5 % of the bytes come from the
#: cache at 4,096 entries, 42.3 % at 8,192 and 47.0 % with no limit.  An
#: entry is a 16-byte key and a 40-byte packed value, about 170 bytes with
#: the map and the ring: 1.4 MB when full.
_CACHE_ENTRIES = 8_192

#: Evictions between rebuilds of the cache's map.  A deleted key keeps its
#: slot in a dict's table until an insert finds the table full, and the
#: table then grows to three times the live keys: 590 KB at 8,192 entries
#: against the 295 KB of a map built fresh, whose spare slots a quarter lap
#: of the ring does not use up.
_REBUILD_EVICTIONS = _CACHE_ENTRIES // 4

#: Leading chunk bytes a cache entry is found by.
_KEY_BYTES = 16

#: Bytes of a cached chunk's length, ahead of its SHA-256 in the entry.
_LENGTH_BYTES = 8


def _tile_powers():
    global _TILE_POWERS
    if _TILE_POWERS is None:
        tables = []
        for base in (_BASE_INVERSE, _BASE):
            values = [1] * (_TILE + _WINDOW_SIZE)
            for i in range(1, len(values)):
                values[i] = values[i - 1] * base % _PRIME
            tables.append(_np.array(values, dtype=_np.uint64))
        _TILE_POWERS = tuple(tables)
    return _TILE_POWERS


def _reduce(values, quotient, modulus: int) -> None:
    """``values %= modulus`` in place; ``quotient`` is same-length scratch.

    numpy divides by a scalar with a multiply and a shift (0.5 ns/element,
    unsigned) where ``%`` issues a hardware divide per element (3.1), so
    three passes — quotient, multiply back, subtract — are the cheaper way.
    """
    _np.floor_divide(values, modulus, out=quotient)
    quotient *= modulus
    values -= quotient


def _byte_view(data) -> memoryview:
    """``data`` as a flat C-contiguous view of unsigned bytes.

    A strided view is copied once; any other item format is reinterpreted,
    so every path sees exactly ``memoryview(data).tobytes()``.
    """
    view = memoryview(data)
    if not view.c_contiguous:
        view = memoryview(view.tobytes())
    return view.cast("B")


@dataclass(frozen=True)
class ChunkBoundary:
    """A [start, end) byte range of one chunk within an object."""

    start: int
    end: int

    @property
    def length(self) -> int:
        """Chunk length in bytes."""
        return self.end - self.start


class RabinChunker:
    """Content-defined chunker with minimum / average / maximum chunk sizes.

    Parameters
    ----------
    average_size:
        Target mean chunk size; a boundary is declared when the rolling hash
        is congruent to a fixed residue modulo ``average_size``.
    min_size / max_size:
        Hard bounds on chunk length; defaults are ``average_size / 4`` and
        ``average_size * 4`` (the paper uses 4-8 KB average chunks).
    """

    def __init__(
        self,
        average_size: int = 4096,
        min_size: int | None = None,
        max_size: int | None = None,
    ) -> None:
        if average_size < 64:
            raise ValueError("average_size must be at least 64 bytes")
        self.average_size = average_size
        self.min_size = min_size if min_size is not None else max(1, average_size // 4)
        self.max_size = max_size if max_size is not None else average_size * 4
        if self.min_size <= 0 or self.min_size > self.max_size:
            raise ValueError("require 0 < min_size <= max_size")
        self._boundary_residue = average_size - 1
        self._leading_factor = _LEADING_FACTOR
        #: Chunks cut before, by their first ``_KEY_BYTES`` bytes: the
        #: chunk's length and SHA-256, packed.  ``_ring`` holds the keys
        #: oldest-first for O(1) eviction (``hashing._DIGEST_RING``'s rule).
        self._cache: Dict[bytes, bytes] = {}
        self._ring: Deque[bytes] = deque()
        self._evictions = 0
        #: Bytes this chunker emitted from cache hits rather than the scan.
        self.cache_hit_bytes = 0

    # -- Public API -------------------------------------------------------------------

    def boundaries(self, data) -> List[ChunkBoundary]:
        """Chunk boundaries covering ``data`` completely and in order.

        ``data`` may be ``bytes``, ``bytearray`` or any buffer; offsets count
        the bytes of ``memoryview(data).tobytes()``.
        """
        flat = self._flat_boundaries(_byte_view(data))
        return [ChunkBoundary(start, end) for start, end in flat]

    def split(self, data) -> Iterator[memoryview]:
        """Yield the chunk payloads of ``data`` as zero-copy memoryview slices."""
        view = _byte_view(data)
        for start, end in self._flat_boundaries(view):
            yield view[start:end]

    # -- Boundary computation ---------------------------------------------------------

    def _flat_boundaries(self, data: memoryview) -> List[Tuple[int, int]]:
        """Flat ``(start, end)`` tuples over a :func:`_byte_view`."""
        if len(data) == 0:
            return []
        if _np is not None and self.min_size >= _WINDOW_SIZE:
            return self._walk_boundaries(data)
        return [(b.start, b.end) for b in self.reference_boundaries(data)]

    def _walk_boundaries(self, data, tile: int = _TILE) -> List[Tuple[int, int]]:
        """Walk chunk starts, taking each cut from the cache or the tiled scan.

        At a start, a cached chunk whose first :data:`_KEY_BYTES` bytes and
        SHA-256 match is emitted as is; otherwise the cut is the first
        candidate at or past ``start + min_size``, or the forced cut at
        ``start + max_size`` (or the end of the data), and a cut short of
        the end is cached.  Candidates come from :meth:`_scan_tile`, one
        tile of window starts at a time and only as far as a cut needs
        them: a hit run skips its bytes, and candidates already computed
        serve later starts, since each depends only on its own window.
        ``tile`` is a seam for tests (at most ``_TILE``).
        """
        n = len(data)
        x = _np.frombuffer(data, dtype=_np.uint8)
        scratch = _np.empty((2, min(tile + _WINDOW_SIZE - 1, n)), dtype=_np.uint64)
        stop = n - (_WINDOW_SIZE - 1)  # window starts with a full window
        min_size, max_size = self.min_size, self.max_size
        cache, ring = self._cache, self._ring
        candidates = _np.empty(0, dtype=_np.intp)  # sorted, from the last tile scanned
        scanned = 0  # window starts below this are scanned or skipped
        boundaries: List[Tuple[int, int]] = []
        append = boundaries.append
        start = 0
        while start < n:
            lowest = start + min_size
            if lowest > n:
                append((start, n))
                break
            key = data[start : start + _KEY_BYTES].tobytes()
            entry = cache.get(key)
            if entry is not None:
                end = start + int.from_bytes(entry[:_LENGTH_BYTES], "little")
                if entry.endswith(_sha256(data[start:end]).digest()):
                    self.cache_hit_bytes += end - start
                    append((start, end))
                    start = end
                    continue
            forced = start + max_size
            if forced > n:
                forced = n
            if scanned < lowest - _WINDOW_SIZE:
                scanned = lowest - _WINDOW_SIZE
            while True:
                index = candidates.searchsorted(lowest)
                if index < len(candidates):
                    cut = int(candidates[index])
                    if cut > forced:
                        cut = forced
                    break
                if scanned >= forced - _WINDOW_SIZE:  # every cut below forced is known
                    cut = forced
                    break
                k = min(tile, stop - scanned)
                candidates = self._scan_tile(x, scanned, k, scratch)
                scanned += k
            append((start, cut))
            if cut < n:  # the end of the data is no cut of the chunk's own bytes
                if entry is None:
                    if len(ring) >= _CACHE_ENTRIES:
                        del cache[ring.popleft()]
                        self._evictions += 1
                        if self._evictions % _REBUILD_EVICTIONS == 0:
                            cache = self._cache = {kept: cache[kept] for kept in ring}
                    ring.append(key)
                length = (cut - start).to_bytes(_LENGTH_BYTES, "little")
                cache[key] = length + _sha256(data[start:cut]).digest()
            start = cut
        return boundaries

    def _scan_tile(self, x, lo: int, k: int, scratch):
        """Candidate cuts of the ``k`` windows starting at ``lo``, ``lo + 1``, ...

        A full window's hash is position-local: the hash at ``p`` is
        ``hash(data[p-W:p])`` regardless of the chunk start.  For window
        starts ``lo + i``, ``terms[i] = data[lo+i] · B^(-i) mod P``
        (exponents local to the tile, so the power tables are one tile
        long), the sum of ``W`` consecutive terms comes from five doublings
        and one add (1→2→4→8→16→32, 32+16), and the hash is
        ``B^(i+W-1) · sum mod P``.  A sum is below ``W · 2^38 < 2^44`` and a
        reduced sum times a power below ``2^60``: exact in uint64, with no
        prefix sum and so no carry between tiles — consecutive tiles only
        share the ``W - 1`` bytes their windows straddle.  Returns the
        sorted window ends whose hash meets the residue rule.
        """
        inverse_powers, powers = _tile_powers()
        average = self.average_size
        overlap = _WINDOW_SIZE - 1
        length = k + overlap
        wide, narrow = scratch
        _np.multiply(inverse_powers[:length], x[lo : lo + length], out=wide[:length])
        for width in (1, 2, 4, 8, 16):  # wide[i] = narrow[i] + narrow[i + width]
            wide, narrow = narrow, wide
            length -= width
            _np.add(narrow[:length], narrow[width : width + length], out=wide[:length])
        sums, quotient = wide[:k], narrow[:k]
        sums += narrow[32 : 32 + k]
        _reduce(sums, quotient, _PRIME)
        sums *= powers[overlap : overlap + k]
        _reduce(sums, quotient, _PRIME)
        if average & (average - 1) == 0:
            sums &= average - 1
        else:
            _reduce(sums, quotient, average)
        return _np.flatnonzero(sums == self._boundary_residue) + (lo + _WINDOW_SIZE)

    # -- Frozen reference -------------------------------------------------------------

    def reference_boundaries(self, data: bytes) -> List[ChunkBoundary]:
        """The original per-byte implementation, kept verbatim as the frozen
        reference: golden and property tests prove the tiled scan emits
        bit-identical boundaries, ``benchmarks/bench_chunking.py`` uses it as
        the "before" measurement, and chunkers the scan cannot serve run it."""
        length = len(data)
        if length == 0:
            return []
        boundaries: List[ChunkBoundary] = []
        start = 0
        rolling = 0
        window_fill = 0
        position = 0
        while position < length:
            byte = data[position]
            if window_fill < _WINDOW_SIZE:
                rolling = (rolling * _BASE + byte) % _PRIME
                window_fill += 1
            else:
                outgoing = data[position - _WINDOW_SIZE]
                rolling = ((rolling - outgoing * self._leading_factor) * _BASE + byte) % _PRIME
            position += 1
            chunk_length = position - start
            if chunk_length < self.min_size:
                continue
            at_boundary = (rolling % self.average_size) == self._boundary_residue
            if at_boundary or chunk_length >= self.max_size:
                boundaries.append(ChunkBoundary(start, position))
                start = position
                rolling = 0
                window_fill = 0
        if start < length:
            boundaries.append(ChunkBoundary(start, length))
        return boundaries
