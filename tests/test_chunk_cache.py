"""The chunk cache of :class:`RabinChunker`: hits, misses and eviction.

With ``min_size >= WINDOW`` a cut is a function of the chunk's own bytes, so
a chunker remembers each chunk it cut (by its first ``_KEY_BYTES`` bytes,
with its length and SHA-256) and emits it again without scanning when the
same bytes start a later chunk.  The golden and property tests build a fresh
chunker per payload and so never hit the cache; these feed one chunker many
payloads and hold every one to ``reference_boundaries``:

* a stream of objects cut from a small pool of blocks at shifting offsets,
  where most chunks come from the cache;
* chunks that share a cached chunk's key but not its bytes, which must fall
  back to the scan;
* a payload that is a prefix of another, whose end-of-data cut is no cut of
  the chunk's own bytes and must never be stored or trusted;
* the cache's bound: entries, oldest-first eviction and memory.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.wanopt import chunking
from repro.wanopt.chunking import HAVE_NUMPY, RabinChunker

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="the chunk cache rides the tiled scan")

KEY = chunking._KEY_BYTES
BLOCK = 64 * 1024


def flat(boundaries) -> list:
    return [(b.start, b.end) for b in boundaries]


def assert_reference(chunker: RabinChunker, data: bytes) -> None:
    assert flat(chunker.boundaries(data)) == flat(chunker.reference_boundaries(data))


def test_a_stream_of_repeated_blocks_is_served_by_the_cache_and_cut_as_the_reference():
    rng = random.Random(120)
    pool = [rng.randbytes(BLOCK) for _ in range(3)]
    chunker = RabinChunker(average_size=2048)
    for _ in range(6):
        head = rng.randbytes(rng.randrange(1, 4096))
        body = b"".join(rng.choice(pool) for _ in range(2))
        assert_reference(chunker, head + body[rng.randrange(4096) :])
    assert chunker.cache_hit_bytes > BLOCK


def first_chunk_case():
    """A payload whose first chunk is cut by a candidate, not forced."""
    data = random.Random(121).randbytes(24 * 1024)
    chunker = RabinChunker(average_size=1024)
    (start, end), *_ = flat(chunker.reference_boundaries(data))
    assert start == 0 and chunker.min_size < end < chunker.max_size
    return chunker, data, end


def test_a_key_match_with_other_bytes_falls_back_to_the_scan():
    chunker, data, end = first_chunk_case()
    assert_reference(chunker, data)
    assert bytes(data[:KEY]) in chunker._cache
    last_byte_flipped = data[: end - 1] + bytes([data[end - 1] ^ 1]) + data[end:]
    other_tail = data[:KEY] + random.Random(122).randbytes(len(data) - KEY)
    for variant in (last_byte_flipped, other_tail):
        cold = flat(RabinChunker(average_size=1024).reference_boundaries(variant))
        assert cold[0] != (0, end)  # the cached cut would be wrong here
        assert_reference(chunker, variant)


def test_an_end_of_data_cut_is_never_stored_or_trusted():
    chunker, data, _ = first_chunk_case()
    boundaries = flat(chunker.reference_boundaries(data))
    start, end = boundaries[len(boundaries) // 2]
    key = bytes(data[start : start + KEY])
    prefix = data[: start + chunker.min_size + (end - start - chunker.min_size) // 2]
    assert flat(chunker.reference_boundaries(prefix))[-1] == (start, len(prefix))

    # The prefix first: its last cut is the end of the data, not of a chunk.
    prefix_first = RabinChunker(average_size=1024)
    assert_reference(prefix_first, prefix)
    assert key not in prefix_first._cache
    assert_reference(prefix_first, data)
    assert key in prefix_first._cache

    # The prefix after the whole payload: the cached chunk runs past the end
    # of the data, so the cut is scanned, and the entry is left as it was.
    assert_reference(chunker, data)
    entry = chunker._cache[key]
    assert_reference(chunker, prefix)
    assert chunker._cache[key] is entry
    before = chunker.cache_hit_bytes
    assert_reference(chunker, data)
    assert chunker.cache_hit_bytes - before == boundaries[-1][0]


def stored_keys(chunker: RabinChunker, data: bytes) -> list:
    """The keys ``boundaries(data)`` stores, in order: every cut short of the end."""
    return [data[s : s + KEY] for s, e in flat(chunker.boundaries(data)) if e < len(data)]


def test_the_cache_is_bounded_and_evicts_oldest_first():
    limit = chunking._CACHE_ENTRIES
    rng = random.Random(123)
    chunker = RabinChunker(average_size=64, min_size=chunking._WINDOW_SIZE, max_size=256)
    stored = []
    while len(stored) < 3 * limit:
        stored += stored_keys(chunker, rng.randbytes(BLOCK))
        assert len(chunker._cache) == len(chunker._ring) <= limit
    assert chunker.cache_hit_bytes == 0  # random bytes: every key was new
    assert list(chunker._ring) == stored[-limit:]
    assert set(chunker._cache) == set(stored[-limit:])


def test_a_full_cache_holds_at_most_its_memory_bound():
    """An entry's size does not depend on its chunk's, so small chunks fill
    the cache fast.  Measured after two laps of the ring: the rebuilds keep
    evicted keys from growing the map's table."""
    limit = chunking._CACHE_ENTRIES
    payloads = [random.Random(124 + i).randbytes(BLOCK) for i in range(2 * limit // 500)]
    chunking._tile_powers()  # shared by every chunker: not the cache's
    gc.collect()
    tracemalloc.start()
    try:
        chunker = RabinChunker(average_size=64, min_size=chunking._WINDOW_SIZE, max_size=256)
        for data in payloads:
            chunker.boundaries(data)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(chunker._cache) == limit and chunker._evictions >= limit
    assert held <= 1_600_000, held
