"""Cuckoo hash table used for the in-memory buffer of a super table.

The paper's implementation (§7.1) builds each buffer with cuckoo hashing and
two hash functions because it utilises space well and avoids chaining.  This
implementation uses the standard bucketised variant — two candidate buckets
per key, four slots per bucket — which sustains load factors well above the
50 % utilisation the paper runs buffers at, even for the small tables used in
scaled-down experiments.  If an insertion's displacement path exceeds a bound
the table restores its previous state and reports failure; the buffer treats
that the same as "full" and triggers a flush.

Beside the buckets the table keeps a map from key bytes to the slot's entry
(the very list the bucket holds), so a probe — on every lookup, and almost
always a miss — is one hash lookup, not a walk over eight slots.  The buckets
stay because they, not the map, decide when a put is refused (a full pair of
buckets, a displacement path that cycles) and the order :meth:`drain` hands
the entries over in: that is when a buffer flushes and the bytes of every
page it writes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import CapacityError
from repro.core.hashing import (
    CUCKOO_FIRST_WORD,
    CUCKOO_SECOND_WORD,
    KeyDigest,
    KeyLike,
    as_digest,
)

# An occupied slot is a three-element list ``[key, value, words]`` (the key's
# CLAM words; the value updated in place on overwrite); an empty slot is ``None``.
_Slot = Optional[list]


class CuckooHashTable:
    """Fixed-capacity cuckoo hash table mapping ``bytes`` keys to ``bytes`` values.

    Every operation resolves its key to a :class:`~repro.core.hashing.KeyDigest`
    (handed in, or looked up in the digest cache); :meth:`get` and the update
    check probe :attr:`entries` by the key bytes, and a placement takes the
    bucket pair from the digest's words.  An entry keeps the key bytes, the
    value and the words (128 B, where the whole digest is 192), which a
    displacement rehomes it by and :meth:`drain` hands to the flush.
    """

    #: Slots per bucket (standard bucketised cuckoo hashing).
    SLOTS_PER_BUCKET = 4
    #: Maximum number of displacements attempted before declaring the table full.
    MAX_DISPLACEMENTS = 128

    def __init__(self, num_slots: int) -> None:
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        self.num_buckets = max(2, -(-num_slots // self.SLOTS_PER_BUCKET))
        self.num_slots = self.num_buckets * self.SLOTS_PER_BUCKET
        self._buckets: List[List[_Slot]] = [
            [None] * self.SLOTS_PER_BUCKET for _ in range(self.num_buckets)
        ]
        #: Key bytes -> the entry list its slot holds, for exactly the placed
        #: entries (a displacement moves the list, so the map never changes).
        self.entries: Dict[bytes, list] = {}

    # -- Hashing ---------------------------------------------------------------

    def _buckets_for(self, words: Sequence[int]) -> Tuple[int, int]:
        num_buckets = self.num_buckets
        first = words[CUCKOO_FIRST_WORD] % num_buckets
        second = words[CUCKOO_SECOND_WORD] % num_buckets
        if second == first:
            second = (second + 1) % num_buckets
        return first, second

    # -- Read operations ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: KeyLike) -> bool:
        return self.get(key) is not None

    def get(self, key: KeyLike) -> Optional[bytes]:
        """Value stored for ``key``, or ``None`` if absent."""
        data = key.data if type(key) is KeyDigest else as_digest(key).data
        entries = self.entries
        # ``in`` and a subscript, not entries.get: no C call on a lookup.
        if data in entries:
            return entries[data][1]
        return None

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate over all (key, value) pairs in bucket order."""
        for bucket in self._buckets:
            for entry in bucket:
                if entry is not None:
                    yield entry[0], entry[1]

    def load_factor(self) -> float:
        """Fraction of slots occupied."""
        return len(self.entries) / self.num_slots

    # -- Write operations ---------------------------------------------------------

    def put(self, key: KeyLike, value: bytes) -> None:
        """Insert or update ``key``.

        Raises
        ------
        CapacityError
            If the displacement path exceeds :data:`MAX_DISPLACEMENTS`; the
            table is left exactly as it was and the caller should flush and
            retry.
        """
        digest = key if type(key) is KeyDigest else as_digest(key)
        data = digest.data
        entries = self.entries
        # In-place update if the key already exists.
        if data in entries:
            entries[data][1] = value
            return
        words = digest.words or digest.clam_words()
        first, second = self._buckets_for(words)
        buckets = self._buckets
        entry = [data, value, words]
        # Plain insertion into a bucket with a free slot.
        for bucket_index in (first, second):
            bucket = buckets[bucket_index]
            if None in bucket:
                bucket[bucket.index(None)] = entry
                entries[data] = entry
                return
        # Both buckets full: displace entries along a bounded path.  Every
        # write is recorded as (bucket, slot, previous occupant) so the whole
        # chain can be undone if it never terminates; the new entry enters the
        # map only once it is placed, so an undone chain leaves the map as is.
        carried = entry
        bucket_index = first
        history: List[Tuple[int, int, _Slot]] = []
        for step in range(self.MAX_DISPLACEMENTS):
            bucket = buckets[bucket_index]
            if None in bucket:
                bucket[bucket.index(None)] = carried
                entries[data] = entry
                return
            victim_slot = step % self.SLOTS_PER_BUCKET
            victim = bucket[victim_slot]
            history.append((bucket_index, victim_slot, victim))
            bucket[victim_slot] = carried
            carried = victim  # not None: the bucket was full
            alt_first, alt_second = self._buckets_for(carried[2])
            bucket_index = alt_second if bucket_index == alt_first else alt_first
        for bucket_idx, slot_idx, previous in reversed(history):
            buckets[bucket_idx][slot_idx] = previous
        raise CapacityError(
            f"cuckoo displacement path exceeded {self.MAX_DISPLACEMENTS} steps "
            f"at load factor {self.load_factor():.2f}"
        )

    def delete(self, key: KeyLike) -> bool:
        """Remove ``key``; returns whether it was present."""
        digest = key if type(key) is KeyDigest else as_digest(key)
        words = digest.words or digest.clam_words()
        entries = self.entries
        if digest.data not in entries:
            return False
        entry = entries.pop(digest.data)
        for bucket_index in self._buckets_for(words):
            bucket = self._buckets[bucket_index]
            for slot, occupant in enumerate(bucket):
                if occupant is entry:
                    bucket[slot] = None
        return True

    def drain(self) -> Tuple[Dict[bytes, bytes], List[Sequence[int]]]:
        """Remove every entry, emptying the slots where they stand; returns the
        entries in :meth:`items` (bucket) order and their keys' words in the
        same order.  This is the buffer's flush."""
        drained: Dict[bytes, bytes] = {}
        key_words: List[Sequence[int]] = []
        empty = [None] * self.SLOTS_PER_BUCKET
        for bucket in self._buckets:
            for entry in bucket:
                if entry is not None:
                    drained[entry[0]] = entry[1]
                    key_words.append(entry[2])
            bucket[:] = empty
        self.entries = {}
        return drained, key_words
