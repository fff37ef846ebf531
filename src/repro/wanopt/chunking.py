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
This module makes the real-byte path affordable instead of dodging it; three
implementations produce **bit-identical boundaries** (same polynomial, same
residue rule, frozen by ``tests/test_chunking_golden.py``):

* :meth:`RabinChunker.reference_boundaries` — the original per-byte pure
  Python loop, kept verbatim as the frozen reference for golden and
  property tests and as the "before" side of ``benchmarks/bench_chunking.py``;
* the **table-driven scalar path** — a 256-entry outgoing-byte removal
  table, all attribute lookups hoisted into locals, flat ``(start, end)``
  tuples internally, and **min-size skip-ahead**: after each declared
  boundary the scan jumps straight to ``start + min_size - WINDOW``, since
  no earlier position can produce a boundary (the window resets at a cut, so
  the hash at the first eligible position only depends on the preceding
  ``WINDOW`` bytes).  At the default ``min = average/4`` this eliminates
  roughly a quarter of all byte visits;
* the **vectorised path** (used automatically when numpy is importable and
  ``min_size >= WINDOW``) — inside a chunk, once the window is full, the
  rolling hash at position ``p`` is simply the hash of ``data[p-W:p]``,
  independent of where the chunk started.  So candidate cut points are
  computed a cache-sized tile of positions at a time — per-byte terms
  ``data[j]·B^(-j)``, their 48-wide window sums by doubling, one multiply
  by ``B^(p-1)``, all mod ``P`` — with scratch that is O(tile) whatever the
  object size, and boundary selection is a cheap walk over the sorted
  candidate positions.  When ``min_size < WINDOW`` a boundary
  may be declared while the window is still filling (the hash then depends
  on the chunk start), so those configurations fall back to the scalar path.

:meth:`RabinChunker.split` yields zero-copy ``memoryview`` slices; callers
that need owned bytes (the public ``Chunk.payload`` edge) materialise them
exactly once per object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

try:  # Optional acceleration: the scalar path is always available.
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

#: Whether the vectorised path can run at all — the exact condition the
#: chunker's auto-selection uses; tests and benchmarks gate on this instead
#: of re-probing the import themselves.
HAVE_NUMPY = _np is not None

_WINDOW_SIZE = 48
_PRIME = 1_000_000_007
_BASE = 257

_LEADING_FACTOR = pow(_BASE, _WINDOW_SIZE - 1, _PRIME)

#: ``_REMOVAL_TABLE[b] == (b * BASE^(WINDOW-1)) % PRIME`` — subtracting this
#: from the rolling hash evicts outgoing byte ``b`` with one table lookup
#: instead of a multiply-mod per byte.
_REMOVAL_TABLE = tuple((b * _LEADING_FACTOR) % _PRIME for b in range(256))

#: Modular inverse of the base: ``(BASE * _BASE_INVERSE) % PRIME == 1``.
_BASE_INVERSE = pow(_BASE, _PRIME - 2, _PRIME)

#: Window starts hashed per tile of the vectorised scan.  Measured (random
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
    vectorized:
        ``None`` (default) picks the numpy candidate-scan path when numpy is
        importable and ``min_size >= WINDOW``; ``False`` forces the
        table-driven scalar path; ``True`` demands the vectorised path and
        raises when it cannot run (numpy missing, or ``min_size`` below the
        rolling window — there the hash at an eligible position depends on
        the chunk start, which a position-local scan cannot express).  All
        paths produce bit-identical boundaries.
    """

    #: Rolling-hash window width in bytes (the LBFS scheme's 48).
    WINDOW_SIZE = _WINDOW_SIZE

    def __init__(
        self,
        average_size: int = 4096,
        min_size: int | None = None,
        max_size: int | None = None,
        vectorized: bool | None = None,
    ) -> None:
        if average_size < 64:
            raise ValueError("average_size must be at least 64 bytes")
        self.average_size = average_size
        self.min_size = min_size if min_size is not None else max(1, average_size // 4)
        self.max_size = max_size if max_size is not None else average_size * 4
        if self.min_size <= 0 or self.min_size > self.max_size:
            raise ValueError("require 0 < min_size <= max_size")
        if vectorized and _np is None:
            raise ValueError("vectorized=True requires numpy, which is not importable")
        if vectorized and self.min_size < _WINDOW_SIZE:
            raise ValueError(
                "vectorized=True requires min_size >= WINDOW_SIZE "
                f"({_WINDOW_SIZE}); use vectorized=None for automatic fallback"
            )
        self._boundary_residue = average_size - 1
        self._leading_factor = _LEADING_FACTOR
        self._vectorized = (
            vectorized
            if vectorized is not None
            else (_np is not None and self.min_size >= _WINDOW_SIZE)
        )

    @property
    def skip_per_chunk(self) -> int:
        """Bytes the scan skips (never hashes) at the head of each chunk."""
        return max(0, self.min_size - _WINDOW_SIZE)

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
        if self._vectorized:  # construction guarantees min_size >= WINDOW here
            return self._boundaries_vectorized(data)
        return self._boundaries_scalar(data)

    def _boundaries_scalar(self, data) -> List[Tuple[int, int]]:
        """Table-driven per-byte scan with min-size skip-ahead.

        Bit-identical to :meth:`reference_boundaries`: same polynomial, same
        residue rule, same forced cut at ``max_size``.  The window resets at
        every cut, so the hash at the first eligible check position
        (``start + min_size``) depends only on the ``WINDOW`` bytes before
        it — positions before ``start + min_size - WINDOW`` need not be
        visited at all.
        """
        length = len(data)
        boundaries: List[Tuple[int, int]] = []
        append = boundaries.append
        # Hoist everything the inner loops touch into locals.
        window, prime, base, table = _WINDOW_SIZE, _PRIME, _BASE, _REMOVAL_TABLE
        min_size, max_size, average = self.min_size, self.max_size, self.average_size
        residue = self._boundary_residue
        power_of_two = average & (average - 1) == 0
        mask = average - 1
        skip = min_size - window if min_size > window else 0
        start = 0
        while start < length:
            first_check = start + min_size
            if first_check > length:
                append((start, length))
                break
            rolling = 0
            pos = start + skip
            # Warm-up: hash up to the first position where a boundary could be
            # declared (no checks can fire before chunk_length == min_size).
            # The span is min(min_size, WINDOW) bytes, so the window never
            # fills *before* the last warm-up byte — no eviction needed here.
            for byte in data[pos:first_check]:
                rolling = (rolling * base + byte) % prime
            pos = first_check
            window_fill = min(min_size, window)
            limit = start + max_size
            if limit > length:
                limit = length
            if (rolling & mask == residue) if power_of_two else (rolling % average == residue):
                cut = pos
            elif window_fill == window:
                # Hot loop: full window, one table lookup + one mod per byte,
                # iterating incoming/outgoing byte pairs without indexing.
                incoming = data[pos:limit]
                outgoing = data[pos - window : limit - window]
                if power_of_two:
                    for inc, out in zip(incoming, outgoing):
                        rolling = ((rolling - table[out]) * base + inc) % prime
                        pos += 1
                        if rolling & mask == residue:
                            break
                else:
                    for inc, out in zip(incoming, outgoing):
                        rolling = ((rolling - table[out]) * base + inc) % prime
                        pos += 1
                        if rolling % average == residue:
                            break
                cut = pos
            else:
                # min_size < WINDOW: checks begin while the window still fills.
                while pos < limit:
                    byte = data[pos]
                    if window_fill < window:
                        rolling = (rolling * base + byte) % prime
                        window_fill += 1
                    else:
                        rolling = ((rolling - table[data[pos - window]]) * base + byte) % prime
                    pos += 1
                    if rolling % average == residue:
                        break
                cut = pos
            append((start, cut))
            start = cut
        return boundaries

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
        reference: golden and property tests prove the optimized paths emit
        bit-identical boundaries, and ``benchmarks/bench_chunking.py`` uses it
        as the "before" measurement."""
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
