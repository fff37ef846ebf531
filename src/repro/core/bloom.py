"""Plain Bloom filter, one per incarnation.

A super table keeps one Bloom filter per on-flash incarnation (§5.1 of the
paper).  The paper builds it while items are inserted into the buffer; here
the flush writes it once, into the super table's bit-sliced array
(:mod:`repro.core.sliced_bloom`), its only store.  This class is one filter's
plain bit array: a checkpoint's, and the unbuffered ablation's one filter.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.core.hashing import BLOOM_H1_WORD, BLOOM_H2_WORD, KeyDigest, KeyLike, as_digest
from repro.core.hashing import walks_bloom_positions


def optimal_num_hashes(bits_per_item: float) -> int:
    """Number of hash functions minimising false positives: ``m/n * ln 2``."""
    if bits_per_item <= 0:
        raise ValueError("bits_per_item must be positive")
    return max(1, round(bits_per_item * math.log(2)))


class BloomFilter:
    """A fixed-size Bloom filter over arbitrary keys.

    ``add`` and ``in`` walk a key's Kirsch-Mitzenmacher positions from its
    two Bloom words when :func:`~repro.core.hashing.walks_bloom_positions`
    (a miss stops at its first clear bit; nothing is kept on the digest),
    and ask ``digest.bloom_positions`` for a list otherwise.

    The bit array is a mutable ``bytearray`` (padded to whole 64-bit words),
    so ``add`` flips bits in place in O(1) per hash instead of rebuilding an
    immutable big-int of ``num_bits`` size on every set bit, and
    ``fill_fraction`` popcounts the array a word at a time.
    """

    __slots__ = ("num_bits", "num_hashes", "_bits", "_count", "_low")

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        # Padded to a multiple of 8 bytes so fill_fraction can view the
        # buffer as 64-bit words; bits >= num_bits are never set.
        self._bits = bytearray(((num_bits + 63) // 64) * 8)
        self._count = 0
        # The mask a key's positions are walked with; 0: listed instead.
        self._low = num_bits - 1 if walks_bloom_positions(num_bits) else 0

    @classmethod
    def for_capacity(cls, capacity: int, bits_per_item: float = 16.0) -> "BloomFilter":
        """Build a filter sized for ``capacity`` items at ``bits_per_item``."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        num_bits = max(8, int(capacity * bits_per_item))
        return cls(num_bits=num_bits, num_hashes=optimal_num_hashes(bits_per_item))

    @property
    def item_count(self) -> int:
        """Number of keys added so far."""
        return self._count

    def bit_positions(self, key: KeyLike) -> list[int]:
        """The bit indices this key maps to."""
        digest = key if type(key) is KeyDigest else as_digest(key)
        return digest.bloom_positions(self.num_hashes, self.num_bits)

    def add(self, key: KeyLike) -> None:
        """Insert a key into the filter."""
        bits = self._bits
        digest = key if type(key) is KeyDigest else as_digest(key)
        low = self._low
        if low:
            words = digest.words or digest.clam_words()
            position = words[BLOOM_H1_WORD] & low
            step = (words[BLOOM_H2_WORD] | 1) & low
            for _ in range(self.num_hashes):
                bits[position >> 3] |= 1 << (position & 7)
                position = (position + step) & low
        else:
            for position in digest.bloom_positions(self.num_hashes, self.num_bits):
                bits[position >> 3] |= 1 << (position & 7)
        self._count += 1

    def update(self, keys: Iterable[KeyLike]) -> None:
        """Insert many keys."""
        for key in keys:
            self.add(key)

    def __contains__(self, key: KeyLike) -> bool:
        bits = self._bits
        digest = key if type(key) is KeyDigest else as_digest(key)
        low = self._low
        if low:
            words = digest.words or digest.clam_words()
            position = words[BLOOM_H1_WORD] & low
            step = (words[BLOOM_H2_WORD] | 1) & low
            for _ in range(self.num_hashes):
                if not bits[position >> 3] & (1 << (position & 7)):
                    return False
                position = (position + step) & low
            return True
        for position in digest.bloom_positions(self.num_hashes, self.num_bits):
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    def fill_fraction(self) -> float:
        """Fraction of bits set, popcounted a 64-bit word at a time."""
        ones = sum(word.bit_count() for word in memoryview(self._bits).cast("Q"))
        return ones / self.num_bits

    def to_bytes(self) -> bytes:
        """The raw bit array (checkpoint serialisation)."""
        return bytes(self._bits)

    @classmethod
    def from_bytes(
        cls, num_bits: int, num_hashes: int, data: bytes, item_count: int = 0
    ) -> "BloomFilter":
        """Rebuild a filter from :meth:`to_bytes` output (crash recovery)."""
        clone = cls(num_bits, num_hashes)
        if len(data) != len(clone._bits):
            raise ValueError(
                f"bit array of {len(data)} bytes does not match num_bits={num_bits}"
            )
        clone._bits = bytearray(data)
        clone._count = item_count
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(num_bits={self.num_bits}, num_hashes={self.num_hashes}, "
            f"items={self._count})"
        )
