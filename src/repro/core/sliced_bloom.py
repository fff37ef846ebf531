"""Bit-sliced, sliding-window organisation of per-incarnation Bloom filters.

Section 5.1.3 of the paper: instead of storing the ``k`` per-incarnation
Bloom filters of a super table as ``k`` separate ``m``-bit arrays, store them
as ``m`` slices of ``k`` bits each, where slice ``i`` concatenates bit ``i``
of every incarnation's filter.  A lookup then retrieves the ``h`` slices
addressed by the key's hash functions and ANDs them; the 1-bits of the result
identify the incarnations that may contain the key — one pass over ``h``
machine words instead of ``h * k`` scattered bit probes.

Eviction uses the sliding-window trick: each slice carries ``w`` spare bits,
the active window of ``k`` bits simply shifts on eviction, and vacated bits
are cleared lazily a whole word at a time, so eviction does not touch all
``m`` slices.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.bloom import BloomFilter
from repro.core.hashing import BLOOM_H1_WORD, BLOOM_H2_WORD, KeyDigest, KeyLike, as_digest
from repro.core.hashing import walks_bloom_positions

#: ``w``, the spare columns appended to every slice so vacated columns can be
#: cleared lazily in word-sized batches.
SPARE_BITS = 64


class BitSlicedBloomArray:
    """Bloom filters for the incarnations of one super table, stored bit-sliced.

    Parameters
    ----------
    num_bits:
        Bits per incarnation filter (``m``).
    num_hashes:
        Hash functions per filter (``h``); must match the per-incarnation
        :class:`~repro.core.bloom.BloomFilter` configuration so both
        organisations give identical answers.
    max_incarnations:
        Window size ``k`` — the number of live incarnations.
    """

    def __init__(self, num_bits: int, num_hashes: int, max_incarnations: int) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        if max_incarnations <= 0:
            raise ValueError("max_incarnations must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.max_incarnations = max_incarnations
        self.total_columns = max_incarnations + SPARE_BITS
        # The mask a key's positions are walked with; 0: listed instead.
        self._low = num_bits - 1 if walks_bloom_positions(num_bits) else 0

        # One integer per bit position; bit j of _slices[i] is bit i of the
        # Bloom filter whose incarnation occupies column j.
        self._slices: List[int] = [0] * num_bits
        # (column bit, caller-supplied incarnation identifier) of the live
        # incarnations, newest first: a query walks it as it is.  The window is
        # small and moves once per flush, so it is a tuple rebuilt on the move.
        self._window: Tuple[Tuple[int, object], ...] = ()
        # The same pairs as a map, kept in step with the window: a query that
        # leaves one column standing (the usual hit) names its owner without
        # the walk.
        self._owner_of: Dict[int, object] = {}
        # OR of the live columns' bits, maintained incrementally so lookups
        # do not rebuild it per query.
        self._live_mask = 0
        self._next_column = 0
        self._vacated_columns: List[int] = []
        self.lazy_clear_batches = 0

    # -- Window management -------------------------------------------------------

    @property
    def live_count(self) -> int:
        """Number of incarnations currently represented."""
        return len(self._window)

    def append_filter(self, bloom: BloomFilter, incarnation_id: object) -> None:
        """Install the (frozen) buffer filter as the newest incarnation's filter."""
        if bloom.num_bits != self.num_bits or bloom.num_hashes != self.num_hashes:
            raise ValueError("Bloom filter geometry does not match the sliced array")
        if len(self._window) >= self.max_incarnations:
            raise RuntimeError(
                "sliced array is full; evict the oldest incarnation before appending"
            )
        column = self._allocate_column()
        column_bit = 1 << column
        slices = self._slices
        # Walk only the set bits of the source filter.
        for position in bloom.set_bits():
            slices[position] |= column_bit
        self._window = ((column_bit, incarnation_id),) + self._window
        self._owner_of[column_bit] = incarnation_id
        self._live_mask |= column_bit

    def evict_oldest(self) -> Optional[object]:
        """Slide the window past the oldest incarnation; returns its identifier."""
        if not self._window:
            return None
        column_bit, owner = self._window[-1]
        self._window = self._window[:-1]
        del self._owner_of[column_bit]
        self._live_mask &= ~column_bit
        # The paper's lazy clearing: vacated columns keep their stale bits
        # until a whole word's worth has accumulated, then are cleared at once.
        self._vacated_columns.append(column_bit.bit_length() - 1)
        if len(self._vacated_columns) >= SPARE_BITS:
            self._clear_vacated()
        return owner

    def _allocate_column(self) -> int:
        """Next free column, wrapping around the (k + w)-bit slice width."""
        for _ in range(self.total_columns):
            column = self._next_column
            self._next_column = (self._next_column + 1) % self.total_columns
            if not self._live_mask >> column & 1 and column not in self._vacated_columns:
                return column
        # All columns either live or awaiting lazy clearing: force a clear.
        self._clear_vacated()
        column = self._next_column
        self._next_column = (self._next_column + 1) % self.total_columns
        return column

    def _clear_vacated(self) -> None:
        """Clear all vacated columns across every slice in one batch."""
        if not self._vacated_columns:
            return
        mask = 0
        for column in self._vacated_columns:
            mask |= 1 << column
        keep = ~mask
        for index, slice_bits in enumerate(self._slices):
            if slice_bits & mask:
                self._slices[index] = slice_bits & keep
        self._vacated_columns.clear()
        self.lazy_clear_batches += 1

    # -- Lookup --------------------------------------------------------------------

    def candidates(self, key: KeyLike) -> List[object]:
        """Incarnation identifiers that may contain ``key``, newest first; the
        probe stops at the first slice that leaves no column standing."""
        if not self._window:
            return []
        digest = key if type(key) is KeyDigest else as_digest(key)
        slices = self._slices
        combined = self._live_mask
        low = self._low
        if low:
            words = digest.words or digest.clam_words()
            position = words[BLOOM_H1_WORD] & low
            step = (words[BLOOM_H2_WORD] | 1) & low
            for _ in range(self.num_hashes):
                combined &= slices[position]
                if combined == 0:
                    return []
                position = (position + step) & low
        else:
            for position in digest.bloom_positions(self.num_hashes, self.num_bits):
                combined &= slices[position]
                if combined == 0:
                    return []
        if not combined & (combined - 1):  # one column survived
            return [self._owner_of[combined]]
        # Newest-first so the caller sees the most recent value for a key.  A
        # plain loop: a comprehension is one more frame.
        found = []
        for column_bit, owner in self._window:
            if combined & column_bit:
                found.append(owner)
        return found

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BitSlicedBloomArray(num_bits={self.num_bits}, num_hashes={self.num_hashes}, "
            f"live={self.live_count}/{self.max_incarnations})"
        )
