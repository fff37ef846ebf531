"""Bit-sliced organisation of per-incarnation Bloom filters: their only store.

Section 5.1.3 of the paper: instead of storing the ``k`` per-incarnation
Bloom filters of a super table as ``k`` separate ``m``-bit arrays, store them
as ``m`` slices of ``k`` bits each, where slice ``i`` concatenates bit ``i``
of every incarnation's filter.  A lookup then retrieves the ``h`` slices
addressed by the key's hash functions and ANDs them; the 1-bits of the result
identify the incarnations that may contain the key — one pass over ``h``
machine words instead of ``h * k`` scattered bit probes.

As in the paper a slice is a machine word: the ``m`` slices are one
``bytearray`` of ``W`` bytes each, ``W`` the smallest of 1, 2, 4 and 8 with
``8 * W >= k`` (one byte per slice at the standard ``k = 8``, 16 bits per
entry of DRAM), read through a native-int ``memoryview`` when ``W > 1``.
Column ``c`` is bit ``c % 8`` of the slice's byte ``c // 8``, counted in the
machine's byte order, so a native read has it at bit ``c``.  A window of more
than 64 columns (a device-derived ``k`` runs to hundreds of thousands) starts
at 8 bytes a slice and doubles them when the ring first reaches a column they
do not hold; slices wider than a word are read an int at a time.

The columns are a fixed ring of exactly ``k``: eviction clears the oldest
column, one ``bytes.translate`` over the byte of every slice that holds it,
and the next append reuses it.  The paper instead gives every slice ``w``
spare bits, shifts the window on eviction and clears vacated columns lazily.

The paper builds each filter while its buffer fills, a per-insert walk into a
filter no lookup reads; here a flush writes its column once
(:meth:`~BitSlicedBloomArray.append_keys`, from the words the buffer kept).

Log replay writes a column the same way, from the words of the keys on the
incarnation's pages.  A checkpoint carries a column as a plain bit array (bit
``i`` is bit ``i % 8`` of byte ``i // 8``, padded to whole 64-bit words):
:meth:`~BitSlicedBloomArray.column_bytes` reads it out, with the
``item_count`` kept beside the column, and
:meth:`~BitSlicedBloomArray.append_column` puts it back.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.hashing import BLOOM_H1_WORD, BLOOM_H2_WORD, KeyDigest, KeyLike, as_digest
from repro.core.hashing import bloom_positions, walks_bloom_positions

#: ``bytes.translate`` tables: ``_CLEAR[b]`` clears bit ``b`` of every byte.
_CLEAR = [bytes(value & ~(1 << bit) for value in range(256)) for bit in range(8)]
#: ``_DIGIT[b]`` maps a byte to ASCII ``1`` if its bit ``b`` is set, else ``0``;
#: ``_MARK[b]`` maps ASCII ``1`` back to a byte with only bit ``b`` set.
_DIGIT = [bytes(0x31 if value >> bit & 1 else 0x30 for value in range(256)) for bit in range(8)]
_MARK = [bytes(1 << bit if value == 0x31 else 0 for value in range(256)) for bit in range(8)]
#: ``memoryview.cast`` formats of the native unsigned ints of 2, 4 and 8 bytes.
_NATIVE_FORMATS = {2: "H", 4: "I", 8: "Q"}


def column_size(num_bits: int) -> int:
    """Bytes of a column of ``num_bits`` bits as a plain bit array."""
    return (num_bits + 63) // 64 * 8


class _WideSlices:
    """Slices of more than 8 bytes (``k > 64``), read as one int each."""

    def __init__(self, slab: bytearray, width: int) -> None:
        self.slab = slab
        self.width = width

    def __getitem__(self, position: int) -> int:
        start = position * self.width
        return int.from_bytes(self.slab[start : start + self.width], sys.byteorder)


class BitSlicedBloomArray:
    """Bloom filters for the incarnations of one super table, stored bit-sliced.

    Parameters
    ----------
    num_bits:
        Bits per incarnation filter (``m``).
    num_hashes:
        Hash functions per filter (``h``): the positions of a key that a
        column writer sets and a query tests.
    max_incarnations:
        Window size ``k`` — the number of live incarnations and of columns.
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
        # The mask a key's positions are walked with; 0: listed instead.
        self._low = num_bits - 1 if walks_bloom_positions(num_bits) else 0

        # m slices of _width bytes; bit j of slice i, as read through _view,
        # is bit i of the filter of the incarnation that occupies column j.
        # Beside them, the keys added to each column's filter (its checkpointed
        # item_count): one count per column the slices hold, grown with them.
        self._slices = bytearray()
        self._width = 0
        self._item_counts: List[int] = []
        self._widen(min(max_incarnations, 64))
        # (column bit, caller-supplied incarnation identifier) of the live
        # incarnations, newest first: a query walks it as it is.  The window is
        # small and moves once per flush, so it is a tuple rebuilt on the move.
        self._window: Tuple[Tuple[int, object], ...] = ()
        # The same pairs as a map, kept in step with the window: a query that
        # leaves one column standing (the usual hit) names its owner without
        # the walk.
        self._owner_of: Dict[int, object] = {}
        # The ring's next column: the live columns are the ones just before it.
        self._next_column = 0

    # -- Window management -------------------------------------------------------

    @property
    def live_count(self) -> int:
        """Number of incarnations currently represented."""
        return len(self._window)

    def _widen(self, columns: int) -> None:
        """Make each slice the fewest bytes, a power of two, that hold
        ``columns`` columns, keeping the bits already set."""
        old, old_width = self._slices, self._width
        width = 1
        while 8 * width < columns:
            width *= 2
        slices = bytearray(self.num_bits * width)
        shift = 0 if sys.byteorder == "little" else width - old_width
        for byte in range(old_width):
            slices[shift + byte :: width] = old[byte::old_width]
        self._slices, self._width = slices, width
        self._item_counts += [0] * (8 * width - len(self._item_counts))
        if width == 1:
            self._view: Sequence[int] = slices
        elif width <= 8:
            self._view = memoryview(slices).cast(_NATIVE_FORMATS[width])
        else:
            self._view = _WideSlices(slices, width)

    def _take_column(self, item_count: int, incarnation_id: object) -> int:
        """The ring's next column, given to the newest incarnation."""
        if len(self._window) >= self.max_incarnations:
            raise RuntimeError("sliced array is full; evict the oldest incarnation first")
        # Evictions take the oldest column, so the one after the newest is free.
        column = self._next_column
        if column >> 3 >= self._width:  # past 64 columns, slices grow as used
            self._widen(column + 1)
        self._next_column = (column + 1) % self.max_incarnations
        column_bit = 1 << column
        self._item_counts[column] = item_count
        self._window = ((column_bit, incarnation_id),) + self._window
        self._owner_of[column_bit] = incarnation_id
        return column

    def _byte_of(self, column: int) -> int:
        """Offset, within each slice, of the byte that holds ``column``."""
        if sys.byteorder == "little":
            return column >> 3
        return self._width - 1 - (column >> 3)

    def append_keys(
        self, key_words: List[Sequence[int]], item_count: int, incarnation_id: object
    ) -> None:
        """The flush's column writer: the newest incarnation's filter holds the
        Bloom positions of every key whose CLAM words ``key_words`` lists
        (walked as :meth:`candidates` walks them) and counts ``item_count``
        keys (an update counts again)."""
        column = self._take_column(item_count, incarnation_id)
        width = self._width
        offset = self._byte_of(column)
        mark = 1 << (column & 7)
        slices = self._slices
        num_hashes = self.num_hashes
        low = self._low
        if not low or width > 8:
            # A listed m, or slices wider than a word: each position's byte.
            for words in key_words:
                for position in bloom_positions(words, num_hashes, self.num_bits):
                    slices[position * width + offset] |= mark
            return
        # A key's walk, unwrapped, stays below h * m, so each key is one
        # extended-slice write into h tiles of the slab's shape, folded into
        # the slab with shifts: 0.7 of the time of a write per position.
        tile = self.num_bits * width
        scratch = bytearray(num_hashes * tile)
        marks = bytes((mark,)) * num_hashes
        for words in key_words:
            start = (words[BLOOM_H1_WORD] & low) * width + offset
            stride = ((words[BLOOM_H2_WORD] | 1) & low) * width
            scratch[start : start + num_hashes * stride : stride] = marks
        scratch += slices
        bits = int.from_bytes(scratch, "little")
        tiles = num_hashes + 1
        while tiles > 1:
            tiles = (tiles + 1) >> 1
            bits |= bits >> (tiles * tile * 8)
        slices[:] = (bits & ((1 << (tile * 8)) - 1)).to_bytes(tile, "little")

    def append_column(self, bits: bytes, item_count: int, incarnation_id: object) -> None:
        """Install a column held as a plain bit array (a checkpoint's, as
        :meth:`column_bytes` gave it) as the newest incarnation's filter."""
        if len(bits) != column_size(self.num_bits):
            raise ValueError(f"{len(bits)} bytes do not hold a column of num_bits={self.num_bits}")
        column = self._take_column(item_count, incarnation_id)
        num_bits = self.num_bits
        # Digit i of the reversed binary string is bit i, marked in slice i.
        value = int.from_bytes(bits, "little") & ((1 << num_bits) - 1)
        digits = format(value, f"0{num_bits}b")[::-1].encode("ascii")
        marks = int.from_bytes(digits.translate(_MARK[column & 7]), "little")
        width = self._width
        offset = self._byte_of(column)
        slices = self._slices
        held = int.from_bytes(slices[offset::width], "little")
        slices[offset::width] = (held | marks).to_bytes(num_bits, "little")

    def evict_oldest(self) -> Optional[object]:
        """Clear the oldest incarnation's column; returns its identifier."""
        if not self._window:
            return None
        column_bit, owner = self._window[-1]
        column = (self._next_column - len(self._window)) % self.max_incarnations
        self._window = self._window[:-1]
        del self._owner_of[column_bit]
        # Same-length slice writes: the slab never moves under its view.
        width = self._width
        offset = self._byte_of(column)
        slices = self._slices
        slices[offset::width] = slices[offset::width].translate(_CLEAR[column & 7])
        return owner

    def column_bytes(self, incarnation_id: object) -> Tuple[bytes, int]:
        """One live incarnation's filter as a plain bit array, and its
        ``item_count``: what was appended for it (checkpoint serialisation;
        never on the per-operation path)."""
        for column_bit, owner in self._window:
            if owner == incarnation_id:
                break
        else:
            raise KeyError(incarnation_id)
        column = column_bit.bit_length() - 1
        # Slice i's byte as ASCII digit i: reversed, the column as one int.
        digits = self._slices[self._byte_of(column) :: self._width].translate(_DIGIT[column & 7])
        bits = int(digits[::-1], 2).to_bytes(column_size(self.num_bits), "little")
        return bits, self._item_counts[column]

    # -- Lookup --------------------------------------------------------------------

    def candidates(self, key: KeyLike) -> List[object]:
        """Incarnation identifiers that may contain ``key``, newest first; the
        probe stops at the first slice that leaves no column standing."""
        if not self._window:
            return []
        digest = key if type(key) is KeyDigest else as_digest(key)
        slices = self._view
        # Every set bit belongs to a live column: eviction cleared the rest.
        combined = -1
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
