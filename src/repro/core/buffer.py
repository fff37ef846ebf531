"""In-memory buffer of a super table: one bucketised cuckoo hash table (§5.1, §7.1).

All newly inserted values land here; the super table flushes the buffer to
flash when it reaches its configured capacity.  The paper builds each buffer
with cuckoo hashing and two hash functions because it utilises space well and
avoids chaining.  This is the standard bucketised variant — two candidate
buckets per key, four slots per bucket — which sustains load factors well
above the 50 % utilisation the paper runs buffers at, even for the small
tables of scaled-down experiments.  A put whose displacement path exceeds a
bound undoes it and is refused, as a put into a full buffer is: the super
table flushes and retries.

Beside the buckets the buffer keeps a map from key bytes to the slot's entry
(the very list the bucket holds), so a probe — on every lookup, and almost
always a miss — is one hash lookup, not a walk over eight slots.  The buckets
stay because they, not the map, decide when a put is refused (a full pair of
buckets, a displacement path that cycles) and the order :meth:`Buffer.drain`
hands the entries over in: that is when a buffer flushes and the bytes of
every page it writes.  The buffer keeps no Bloom filter, only what decides the
next incarnation's (entry words, deleted keys' words, the put count); the
flush writes that filter once, into the super table's bit-sliced array.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.hashing import CUCKOO_FIRST_WORD, CUCKOO_SECOND_WORD, KeyDigest, KeyLike, as_digest

# An occupied slot is a three-element list ``[key, value, words]`` (the key's
# CLAM words; the value updated in place on overwrite); an empty slot is ``None``.
_Slot = Optional[list]


def optimal_num_hashes(bits_per_item: float) -> int:
    """Number of hash functions minimising false positives: ``m/n * ln 2``."""
    if bits_per_item <= 0:
        raise ValueError("bits_per_item must be positive")
    return max(1, round(bits_per_item * math.log(2)))


class Buffer:
    """Bounded in-memory staging area for one super table, mapping ``bytes``
    keys to ``bytes`` values.

    Every operation resolves its key to a :class:`~repro.core.hashing.KeyDigest`
    (handed in, or looked up in the digest cache); :meth:`get` and the update
    check probe :attr:`entries` by the key bytes, and a placement takes the
    bucket pair from the digest's words.  An entry keeps the key bytes, the
    value and the words (128 B, where the whole digest is 192), which a
    displacement rehomes it by and :meth:`drain` hands to the flush.  The
    filter a drain decides (``bloom_bits`` by ``bloom_hashes``) holds every key
    put since the last drain, those :meth:`delete` removed included (a harmless
    false positive), and counts every successful put, an update again.
    """

    #: Slots per bucket (standard bucketised cuckoo hashing).
    SLOTS_PER_BUCKET = 4
    #: Maximum number of displacements attempted before a put is refused.
    MAX_DISPLACEMENTS = 128

    def __init__(self, capacity_items: int, num_slots: int, bloom_bits: int) -> None:
        if capacity_items <= 0:
            raise ValueError("capacity_items must be positive")
        if num_slots < capacity_items:
            raise ValueError("num_slots must be at least capacity_items")
        self.capacity_items = capacity_items
        self.bloom_bits = bloom_bits
        self.bloom_hashes = optimal_num_hashes(bloom_bits / max(1, capacity_items))
        self.num_buckets = max(2, -(-num_slots // self.SLOTS_PER_BUCKET))
        self._buckets: List[List[_Slot]] = [
            [None] * self.SLOTS_PER_BUCKET for _ in range(self.num_buckets)
        ]
        #: Key bytes -> the entry list its slot holds, for exactly the placed
        #: entries (a displacement moves the list, so the map never changes).
        self.entries: Dict[bytes, list] = {}
        # Since the last drain: successful puts, and the words of keys delete removed.
        self._puts = 0
        self._deleted: List[Sequence[int]] = []

    def _buckets_for(self, words: Sequence[int]) -> Tuple[int, int]:
        num_buckets = self.num_buckets
        first = words[CUCKOO_FIRST_WORD] % num_buckets
        second = words[CUCKOO_SECOND_WORD] % num_buckets
        if second == first:
            second = (second + 1) % num_buckets
        return first, second

    # -- Reads ---------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key: KeyLike) -> Optional[bytes]:
        """Value stored for ``key``, or ``None`` if absent."""
        data = key.data if type(key) is KeyDigest else as_digest(key).data
        entries = self.entries
        # ``in`` and a subscript, not entries.get: no C call on a lookup.
        if data in entries:
            return entries[data][1]
        return None

    def items(self) -> Dict[bytes, bytes]:
        """Snapshot of the buffer's contents, in bucket (drain) order."""
        return {entry[0]: entry[1] for bucket in self._buckets for entry in bucket if entry}

    # -- Writes --------------------------------------------------------------------

    def put(self, key: KeyLike, value: bytes) -> bool:
        """Insert or update ``key``.

        Returns ``True`` on success and ``False`` when the buffer cannot take
        the item: it is at capacity, or the displacement path exceeded
        :data:`MAX_DISPLACEMENTS` (the buffer is then left exactly as it was).
        The caller should flush and retry.
        """
        digest = key if type(key) is KeyDigest else as_digest(key)
        data = digest.data
        entries = self.entries
        # In-place update if the key already exists.
        if data in entries:
            entries[data][1] = value
            self._puts += 1
            return True
        if len(entries) >= self.capacity_items:
            return False
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
                self._puts += 1
                return True
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
                self._puts += 1
                return True
            victim_slot = step % self.SLOTS_PER_BUCKET
            victim = bucket[victim_slot]
            history.append((bucket_index, victim_slot, victim))
            bucket[victim_slot] = carried
            carried = victim  # not None: the bucket was full
            alt_first, alt_second = self._buckets_for(carried[2])
            bucket_index = alt_second if bucket_index == alt_first else alt_first
        for bucket_idx, slot_idx, previous in reversed(history):
            buckets[bucket_idx][slot_idx] = previous
        return False

    def delete(self, key: KeyLike) -> bool:
        """Remove ``key``; returns whether it was present."""
        digest = key if type(key) is KeyDigest else as_digest(key)
        entries = self.entries
        if digest.data not in entries:
            return False
        entry = entries.pop(digest.data)
        words = entry[2]
        for bucket_index in self._buckets_for(words):
            bucket = self._buckets[bucket_index]
            for slot, occupant in enumerate(bucket):
                if occupant is entry:
                    bucket[slot] = None
        self._deleted.append(words)
        return True

    def drain(self) -> Tuple[Dict[bytes, bytes], List[Sequence[int]], int]:
        """Empty the buffer, clearing the slots where they stand; returns
        ``(items, key_words, item_count)``: the entries in bucket order, each
        one's CLAM words in the same order followed by those of every key
        :meth:`delete` removed since the last drain, and the count of
        successful puts.  This is the flush's input."""
        items: Dict[bytes, bytes] = {}
        key_words: List[Sequence[int]] = []
        empty = [None] * self.SLOTS_PER_BUCKET
        for bucket in self._buckets:
            for entry in bucket:
                if entry is not None:
                    items[entry[0]] = entry[1]
                    key_words.append(entry[2])
            bucket[:] = empty
        key_words += self._deleted
        item_count = self._puts
        self.entries, self._puts, self._deleted = {}, 0, []
        return items, key_words, item_count
