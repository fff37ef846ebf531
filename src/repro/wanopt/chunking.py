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
  whatever the object size, and boundary selection is a cheap walk over the
  sorted candidate positions.  When ``min_size < WINDOW`` a boundary may be
  declared while the window is still filling (the hash then depends on the
  chunk start), which a position-local scan cannot express.

:meth:`RabinChunker.split` yields zero-copy ``memoryview`` slices; callers
that need owned bytes (the public ``Chunk.payload`` edge) materialise them
exactly once per object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

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
            return self._boundaries_vectorized(data)
        return [(b.start, b.end) for b in self.reference_boundaries(data)]

    def _boundaries_vectorized(self, data, tile: int = _TILE) -> List[Tuple[int, int]]:
        """Candidate scan by 48-byte window sums in cache-sized tiles (numpy).

        With ``min_size >= WINDOW`` every eligible check position has a full
        window, and a full window's hash is position-local: the hash at
        ``p`` is ``hash(data[p-W:p])`` regardless of the chunk start.  For
        window starts ``lo + i`` of one tile, ``terms[i] = data[lo+i] ·
        B^(-i) mod P`` (exponents local to the tile, so the power tables are
        one tile long), the sum of ``W`` consecutive terms comes from five
        doublings and one add (1→2→4→8→16→32, 32+16), and the hash is
        ``B^(i+W-1) · sum mod P``.  A sum is below ``W · 2^38 < 2^44`` and a
        reduced sum times a power below ``2^60``: exact in uint64, with no
        prefix sum and so no carry between tiles — consecutive tiles only
        share the ``W - 1`` bytes their windows straddle.  Cuts below
        ``min_size`` are never consulted, so the scan starts there; the
        boundary rule (first candidate at or past ``start + min_size``,
        forced cut at ``start + max_size``) is then a cheap walk over the
        sorted candidates.  ``tile`` is a seam for tests (at most ``_TILE``).
        """
        n = len(data)
        x = _np.frombuffer(data, dtype=_np.uint8)
        inverse_powers, powers = _tile_powers()
        average, residue = self.average_size, self._boundary_residue
        overlap = _WINDOW_SIZE - 1
        first, stop = self.min_size - _WINDOW_SIZE, n - overlap
        wide, narrow = _np.empty((2, min(tile + overlap, n)), dtype=_np.uint64)
        found = []
        for lo in range(first, stop, tile):
            k = min(tile, stop - lo)
            length = k + overlap
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
            hits = _np.flatnonzero(sums == residue)
            if len(hits):
                found.append(hits + (lo + _WINDOW_SIZE))
        candidates = _np.concatenate(found) if found else _np.empty(0, dtype=_np.intp)
        boundaries: List[Tuple[int, int]] = []
        append = boundaries.append
        min_size, max_size = self.min_size, self.max_size
        search = candidates.searchsorted
        num_candidates = len(candidates)
        start = 0
        while start < n:
            lowest = start + min_size
            if lowest > n:
                append((start, n))
                break
            forced = start + max_size
            if forced > n:
                forced = n
            index = search(lowest)
            if index < num_candidates:
                candidate = int(candidates[index])
                cut = candidate if candidate < forced else forced
            else:
                cut = forced
            append((start, cut))
            start = cut
        return boundaries

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
