"""Key generators for synthetic hash-table workloads.

The systems the paper targets use fixed-width content fingerprints (SHA-1
hashes truncated to 8-20 bytes) as keys.  These generators produce such
fingerprint-like keys deterministically from a seed so that every experiment
is reproducible.
"""

from __future__ import annotations

import abc
import hashlib
import random
from typing import Iterator

#: Most distinct identifiers a :class:`ZipfKeyGenerator` draws from, whatever
#: its key space: the cumulative weight table holds one float per identifier.
MAX_UNIVERSE = 100_000


def fingerprint_for(identifier: int, length: int = 20, namespace: bytes = b"repro") -> bytes:
    """A deterministic SHA-1-style fingerprint for an integer identifier."""
    if length <= 0 or length > 20:
        raise ValueError("length must be in 1..20 (SHA-1 output size)")
    digest = hashlib.sha1(namespace + identifier.to_bytes(8, "big")).digest()
    return digest[:length]


class KeyGenerator(abc.ABC):
    """Produces a deterministic, seedable stream of keys."""

    def __init__(self, seed: int = 0, key_length: int = 20) -> None:
        self._rng = random.Random(seed)
        self.key_length = key_length

    @abc.abstractmethod
    def next_key(self) -> bytes:
        """The next key in the stream."""

    def keys(self, count: int) -> Iterator[bytes]:
        """Yield ``count`` keys."""
        for _ in range(count):
            yield self.next_key()


class ZipfKeyGenerator(KeyGenerator):
    """Zipf-distributed identifiers: a few hot keys, a long cold tail.

    Useful for exercising temporal locality (e.g. LRU eviction experiments);
    uses the classic rejection-free approximation over a bounded universe.
    """

    def __init__(
        self,
        key_space: int,
        skew: float = 1.1,
        seed: int = 0,
        key_length: int = 20,
    ) -> None:
        if key_space <= 0:
            raise ValueError("key_space must be positive")
        if skew <= 0:
            raise ValueError("skew must be positive")
        super().__init__(seed=seed, key_length=key_length)
        self.key_space = key_space
        self.skew = skew
        universe = min(key_space, MAX_UNIVERSE)
        weights = [1.0 / ((rank + 1) ** skew) for rank in range(universe)]
        total = sum(weights)
        self._cumulative = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cumulative.append(acc)

    def next_key(self) -> bytes:
        target = self._rng.random()
        low, high = 0, len(self._cumulative) - 1
        while low < high:
            mid = (low + high) // 2
            if self._cumulative[mid] < target:
                low = mid + 1
            else:
                high = mid
        return fingerprint_for(low, self.key_length)
